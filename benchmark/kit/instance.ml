type spec = { workers : int; traced : bool }

type t = {
  metrics : (string * float) list;
  fingerprint : string;
  attempted : int;
  failed : int;
  errors : string list;
}

let metric t name = List.assoc name t.metrics

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let run kind ~size ~seed { workers; traced } =
  let lc = Layer_clock.create () in
  let w = Workload.setup kind ~size ~seed ~workers ~observe:traced lc in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Host_speed.cpu_now () in
  let t0 = Layer_clock.host_now_ns () in
  if traced then Layer_clock.start lc;
  let drive () =
    match w.Workload.drive () with
    | () -> []
    | exception e -> [ "run raised " ^ Printexc.to_string e ]
  in
  (* The traced run reports no host time of its own beside the layers,
     so it runs without host-speed slices, which would land in them. *)
  let raised, hs = if traced then (drive (), Host_speed.none) else Host_speed.sampled drive in
  Layer_clock.stop lc;
  let cpu_s = Host_speed.cpu_now () -. cpu0 -. Host_speed.slice_cpu hs in
  let wall_ns = Layer_clock.host_now_ns () - t0 in
  let gc1 = Gc.quick_stat () in
  let speed = Host_speed.speed hs in
  let smp = w.Workload.smp in
  let wall_s = (float_of_int wall_ns /. 1e9) -. Host_speed.slice_cpu hs in
  let node_sum f =
    List.fold_left ( + ) 0 (List.init (Smp.pcpus smp) (fun cpu -> f cpu))
  in
  let board cpu = Smp.zynq smp cpu and kern cpu = Smp.kernel smp cpu in
  let tallies = w.Workload.tallies in
  let tally_sum f = List.fold_left (fun a (t : Guest_kit.tally) -> a + f t) 0 tallies in
  let attempted = tally_sum (fun t -> t.attempted) in
  let ok = tally_sum (fun t -> t.ok) in
  let mismatches = tally_sum (fun t -> t.mismatches) in
  let sim_cycles = node_sum (fun cpu -> Clock.now (board cpu).Zynq.clock) in
  let hypercalls = Smp.hypercalls smp in
  let errors =
    raised
    @ (if Smp.alive_guests smp > 0 then
         [ Printf.sprintf "%d guests still alive at the cap" (Smp.alive_guests smp) ]
       else [])
    @ (if Smp.crashes smp > 0 then
         [ Printf.sprintf "%d guest crashes" (Smp.crashes smp) ]
       else [])
    @ List.map Invariant.violation_to_string
        (Invariant.check_smp smp ~boundary:"benchmark_final")
    @
    if mismatches > 0 && not (Workload.faulty kind) then
      [ Printf.sprintf "%d verification mismatches in a fault-free workload" mismatches ]
    else []
  in
  let per_job v = if ok = 0 then 0.0 else float_of_int v /. float_of_int ok in
  let latency = Guest_kit.sorted (List.map (fun (t : Guest_kit.tally) -> t.latency) tallies) in
  let pct sorted q =
    if Array.length sorted = 0 then 0.0
    else float_of_int (Quantiles.nearest_rank sorted q)
  in
  let fast = List.init (Smp.pcpus smp) (fun cpu -> (board cpu).Zynq.fast) in
  let fsum f = List.fold_left (fun a x -> a + f x) 0 fast in
  let mtlb_hits = fsum (fun f -> let h, _, _, _ = Fastpath.stats f in h) in
  let mtlb_misses = fsum (fun f -> let _, m, _, _ = Fastpath.stats f in m) in
  let warm = fsum (fun f -> let _, _, w, _ = Fastpath.stats f in w) in
  let partial = fsum Fastpath.partial_replays in
  let cache f = node_sum (fun cpu -> f (Hierarchy.counts (board cpu).Zynq.hier)) in
  let miss_ratio hits misses = ratio (cache misses) (cache hits + cache misses) in
  let tlb_hits = node_sum (fun cpu -> Tlb.hits (board cpu).Zynq.tlb) in
  let tlb_misses = node_sum (fun cpu -> Tlb.misses (board cpu).Zynq.tlb) in
  let hwtm f = node_sum (fun cpu -> f (Kernel.hwtm (kern cpu))) in
  let ring f = node_sum (fun cpu -> f (Kernel.ring_stats (kern cpu))) in
  let switches =
    node_sum (fun cpu -> Stats.count (Probe.stats (Kernel.probe (kern cpu)) Probe.vm_switch))
  in
  let s = Smp.stats smp in
  let epochs = !(w.Workload.epochs) in
  let lateness = Guest_kit.sorted [ w.Workload.lateness ] in
  let untraced =
    [ ("wall_s", wall_s);
      ("cpu_norm_s", cpu_s *. speed);
      ("cpu_s", cpu_s);
      ("host.speed", speed);
      ("peak_rss_mb", peak_rss_mb ());
      ("abi_cycles_per_job", per_job (tally_sum (fun t -> t.abi_cycles)));
      ("job_p50_cycles", pct latency 0.5);
      ("job_p99_cycles", pct latency 0.99);
      ("job_ok_ratio", ratio ok attempted);
      ("job_samples", float_of_int (Array.length latency));
      ("sim.mcycles_per_host_s", float_of_int sim_cycles /. 1e6 /. wall_s);
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
      ("gc.major_collections",
       float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("fastpath.mtlb_hit_ratio", ratio mtlb_hits (mtlb_hits + mtlb_misses));
      ("fastpath.warm_replay_ratio", ratio warm (warm + partial));
      ("smp.epochs", float_of_int epochs);
      ("smp.epoch_host_us", if epochs = 0 then 0.0 else wall_s *. 1e6 /. float_of_int epochs);
      ("smp.ipis", float_of_int s.Smp.s_ipis_posted);
      ("smp.migrations", float_of_int s.Smp.s_migrations);
      ("smp.coherence_cycles",
       float_of_int (s.Smp.s_coherence_cycles + s.Smp.s_contention_cycles));
      ("cachesim.l1i_miss_ratio",
       miss_ratio (fun c -> c.Hierarchy.l1i_hits) (fun c -> c.Hierarchy.l1i_misses));
      ("cachesim.l1d_miss_ratio",
       miss_ratio (fun c -> c.Hierarchy.l1d_hits) (fun c -> c.Hierarchy.l1d_misses));
      ("cachesim.l2_miss_ratio",
       miss_ratio (fun c -> c.Hierarchy.l2_hits) (fun c -> c.Hierarchy.l2_misses));
      ("tlb.miss_ratio", ratio tlb_misses (tlb_hits + tlb_misses));
      ("kernel.hypercalls_per_job", per_job hypercalls);
      ("kernel.switches_per_job", per_job switches);
      ("hwtm.reconfigs_per_job", per_job (hwtm Hw_task_manager.reconfigs));
      ("hwtm.reclaims_per_job", per_job (hwtm Hw_task_manager.reclaims));
      ("hwtm.recoveries", float_of_int (hwtm Hw_task_manager.recoveries));
      ("ring.mean_batch",
       ratio (ring (fun r -> r.Kernel.rs_enqueued))
         (ring (fun r -> r.Kernel.rs_doorbells - r.Kernel.rs_empty_doorbells)));
      ("ring.virqs_per_job", per_job (ring (fun r -> r.Kernel.rs_virqs)));
      ("check.sweeps", float_of_int !(w.Workload.sweeps));
      ("gen.lateness_p99_cycles", pct lateness 0.99) ]
  in
  let traced_only =
    if not traced then []
    else begin
      let cells =
        List.concat_map
          (fun cpu -> (Obs.snapshot (board cpu).Zynq.obs).Obs.s_cells)
          (List.init (Smp.pcpus smp) Fun.id)
      in
      let component c =
        List.fold_left
          (fun a (cell : Obs.cell) -> if cell.Obs.c_component = c then a + cell.Obs.c_cycles else a)
          0 cells
      in
      let secs l = float_of_int (Layer_clock.ns lc l) /. 1e9 in
      let named = List.filter (fun l -> l <> Layer_clock.residual) Layer_clock.all in
      List.map (fun l -> (Layer_clock.name l, secs l)) named
      @ [ ("residual_s", wall_s -. List.fold_left (fun a l -> a +. secs l) 0.0 named) ]
      @ List.map
          (fun c -> (Printf.sprintf "sim.%s_cycles_per_job" c, per_job (component c)))
          Catalog.obs_components
    end
  in
  let fingerprint =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Printf.sprintf "cycles=%d hypercalls=%d" sim_cycles hypercalls);
    List.iter
      (fun (t : Guest_kit.tally) ->
         Buffer.add_string b (Printf.sprintf " %d/%d" t.attempted t.ok))
      tallies;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  { metrics = untraced @ traced_only; fingerprint; attempted;
    failed = attempted - ok; errors }

let setup_seconds kind ~size ~seed ~workers ~boots =
  let lc = Layer_clock.create () in
  let t0 = Host_speed.cpu_now () in
  let (), hs =
    Host_speed.sampled (fun () ->
        for _ = 1 to boots do
          ignore
            (Sys.opaque_identity (Workload.setup kind ~size ~seed ~workers ~observe:false lc))
        done)
  in
  let cpu = Host_speed.cpu_now () -. t0 -. Host_speed.slice_cpu hs in
  cpu /. float_of_int boots *. Host_speed.speed hs

let to_json t =
  Json.Obj
    [ ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.metrics));
      ("fingerprint", Json.Str t.fingerprint);
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) t.errors)) ]

let of_json j =
  let metrics =
    match Json.member "metrics" j with
    | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_float v)) l
    | _ -> []
  in
  { metrics;
    fingerprint = Json.to_str (Json.member "fingerprint" j);
    attempted = int_of_float (Json.to_float (Json.member "attempted" j));
    failed = int_of_float (Json.to_float (Json.member "failed" j));
    errors = List.map Json.to_str (Json.to_list (Json.member "errors" j)) }
