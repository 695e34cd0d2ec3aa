type config = {
  ops : int;
  seed : int;
  max_vms : int;
  check : bool;
  fault_rate : float;
  fault_seed : int;
  quantum_ms : float;
  pcpus : int;
}

let default_config =
  { ops = 200_000; seed = 1; max_vms = 6; check = true; fault_rate = 0.1;
    fault_seed = 7; quantum_ms = 2.0; pcpus = 1 }

type action =
  | A_create of { profile : int; prio : int; gseed : int }
  | A_kill of int
  | A_run of int
  | A_probe of int
  | A_probe_cancel of int
  | A_ring_burst of { pick : int; n : int }
  | A_task_churn of { kind : int }

let profile_count = 5

let action_to_string = function
  | A_create { profile; prio; gseed } ->
    Printf.sprintf "create %d %d %d" profile prio gseed
  | A_kill i -> Printf.sprintf "kill %d" i
  | A_run us -> Printf.sprintf "run %d" us
  | A_probe d -> Printf.sprintf "probe %d" d
  | A_probe_cancel k -> Printf.sprintf "probe-cancel %d" k
  | A_ring_burst { pick; n } -> Printf.sprintf "ring-burst %d %d" pick n
  | A_task_churn { kind } -> Printf.sprintf "task-churn %d" kind

let action_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "create"; p; pr; g ] ->
    (try
       Some
         (A_create
            { profile = int_of_string p; prio = int_of_string pr;
              gseed = int_of_string g })
     with Failure _ -> None)
  | [ "kill"; i ] -> Option.map (fun i -> A_kill i) (int_of_string_opt i)
  | [ "run"; us ] -> Option.map (fun u -> A_run u) (int_of_string_opt us)
  | [ "probe"; d ] -> Option.map (fun d -> A_probe d) (int_of_string_opt d)
  | [ "probe-cancel"; k ] ->
    Option.map (fun k -> A_probe_cancel k) (int_of_string_opt k)
  | [ "ring-burst"; p; n ] ->
    (try Some (A_ring_burst { pick = int_of_string p; n = int_of_string n })
     with Failure _ -> None)
  | [ "task-churn"; k ] ->
    Option.map (fun k -> A_task_churn { kind = k }) (int_of_string_opt k)
  | _ -> None

type stats = {
  ops_done : int;
  actions : int;
  creates : int;
  kills : int;
  crashes : int;
  hypercalls : int;
  live_vms : int;
  checks : int;
  final_cycles : Cycles.t;
}

type outcome =
  | Clean of stats
  | Violated of {
      violation : Invariant.violation;
      shrunk : action list;
      stats : stats;
    }

let stats_json s =
  let open Json_out in
  Obj
    [ ("ops_done", Int s.ops_done);
      ("actions", Int s.actions);
      ("creates", Int s.creates);
      ("kills", Int s.kills);
      ("crashes", Int s.crashes);
      ("hypercalls", Int s.hypercalls);
      ("live_vms", Int s.live_vms);
      ("checks", Int s.checks);
      ("final_cycles", Int s.final_cycles) ]

(* {2 Guest profiles}

   Each profile is an infinite loop seeded by the action's [gseed]:
   determinism depends only on (config, action list). *)

(* Hypercall storm: cheap calls, IRQ churn, IPC, hostile arguments. *)
let storm ~gseed _tasks _genv =
  let rng = Rng.create ~seed:gseed in
  while true do
    (match Rng.int rng 10 with
     | 0 -> ignore (Hyper.hypercall (Hyper.Uart_write "s"))
     | 1 -> ignore (Hyper.hypercall Hyper.Tlb_flush_asid)
     | 2 -> ignore (Hyper.hypercall (Hyper.Irq_enable (32 + Rng.int rng 8)))
     | 3 -> ignore (Hyper.hypercall (Hyper.Irq_disable (32 + Rng.int rng 8)))
     | 4 -> ignore (Hyper.hypercall (Hyper.Irq_enable (-1)))
     | 5 ->
       ignore
         (Hyper.hypercall
            (Hyper.Vm_send
               { dest = Rng.int rng 8; payload = [| Rng.int rng 1000 |] }))
     | 6 -> ignore (Hyper.hypercall Hyper.Vm_recv)
     | 7 -> ignore (Hyper.hypercall (Hyper.Sd_read { block = Rng.int rng 8 }))
     | 8 ->
       ignore
         (Hyper.hypercall
            (Hyper.Vtimer_config
               { interval = Cycles.of_us (float_of_int (50 + Rng.int rng 500))
               }))
     | _ -> ignore (Hyper.hypercall Hyper.Vtimer_stop));
    ignore (Hyper.pause ())
  done

(* Page-table churn over the guest page region, plus mode flips and
   cache/TLB maintenance — keeps the MMU-context and frame checkers
   honest. Roughly one call in eight carries hostile arguments. *)
let mapper ~gseed _tasks _genv =
  let rng = Rng.create ~seed:gseed in
  let page k = Guest_layout.page_region_base + (k * Addr.page_size) in
  while true do
    (match Rng.int rng 8 with
     | 0 ->
       ignore
         (Hyper.hypercall
            (Hyper.Map_insert
               { vaddr = page (Rng.int rng 16);
                 gphys_off = Addr.page_size * Rng.int rng 64;
                 user = Rng.bool rng }))
     | 1 ->
       ignore (Hyper.hypercall (Hyper.Map_remove { vaddr = page (Rng.int rng 16) }))
     | 2 -> ignore (Hyper.hypercall (Hyper.Pt_alloc_l2 { vaddr = page 0 }))
     | 3 ->
       ignore
         (Hyper.hypercall
            (Hyper.Cache_clean_range
               { vaddr = Guest_layout.kernel_base + (Addr.page_size * Rng.int rng 16);
                 len = 64 + Rng.int rng 4096 }))
     | 4 ->
       ignore
         (Hyper.hypercall
            (Hyper.Set_guest_mode
               (if Rng.bool rng then Hyper.Gm_kernel else Hyper.Gm_user)))
     | 5 -> ignore (Hyper.hypercall Hyper.Tlb_flush_all)
     | 6 ->
       (* Hostile: unaligned vaddr outside the page region. *)
       ignore
         (Hyper.hypercall
            (Hyper.Map_insert { vaddr = 0x1234; gphys_off = -4096; user = true }))
     | _ ->
       ignore
         (Hyper.hypercall
            (Hyper.Sd_write
               { block = Rng.int rng 8; data = Bytes.make 16 'a' })));
    ignore (Hyper.pause ())
  done

(* DPR churn: acquire/poll/release hardware tasks, sometimes leaking
   the allocation on purpose so the kill path must reclaim it. *)
let dpr_churn ~gseed tasks _genv =
  let rng = Rng.create ~seed:gseed in
  while true do
    let task = tasks.(Rng.int rng (Array.length tasks)) in
    (match
       Hyper.hypercall
         (Hyper.Hw_task_request
            { task;
              iface_vaddr = Guest_layout.default_iface_vaddr (Rng.int rng 8);
              data_vaddr = Guest_layout.default_data_section;
              data_len = Guest_layout.default_data_section_len;
              want_irq = Rng.bool rng })
     with
     | Hyper.R_hw { status = Hyper.Hw_success | Hyper.Hw_reconfig; _ } ->
       for _ = 1 to 1 + Rng.int rng 6 do
         ignore (Hyper.hypercall (Hyper.Hw_task_status { task }));
         ignore (Hyper.pause ())
       done;
       (* One allocation in four is deliberately leaked: teardown must
          reclaim it when this VM dies. *)
       if Rng.int rng 4 > 0 then
         ignore (Hyper.hypercall (Hyper.Hw_task_release { task }))
     | _ -> ignore (Hyper.pause ()));
    (* Hostile: release something we do not hold. *)
    if Rng.int rng 8 = 0 then
      ignore (Hyper.hypercall (Hyper.Hw_task_release { task = 9999 }));
    ignore (Hyper.pause ())
  done

(* Full µC/OS guest running real hardware jobs end to end (DMA, exec,
   completion IRQ or polling) — the chaos-harness idiom. *)
let ucos_jobs ~gseed tasks genv =
  let rng = Rng.create ~seed:gseed in
  let os = Ucos.create (Port.paravirt genv) in
  ignore
    (Ucos.spawn os ~name:"soak-hw" ~prio:4 (fun () ->
         while true do
           Ucos.delay os (1 + Rng.int rng 3);
           let task = tasks.(Rng.int rng (Array.length tasks)) in
           match
             Hw_task_api.acquire os ~task ~want_irq:(Rng.bool rng)
               ~backoff:true ~max_tries:6 ()
           with
           | Ok h ->
             let off = Hw_task_api.data_in_off in
             Hw_task_api.start os h ~src_off:off ~dst_off:(off + 8192)
               ~len:(32 + Rng.int rng 64) ~param:4;
             ignore (Hw_task_api.wait_done os h);
             Hw_task_api.release os h
           | Error _ -> ()
         done));
  Ucos.run os

(* ABI v2 ring churn: batch job descriptors through the shared
   submission ring, sometimes skipping the doorbell or leaking the
   acquisition, so kills land on rings with undrained descriptors and
   exercise the conservation-closing reclamation path. *)
let ring_jobs ~gseed tasks genv =
  let rng = Rng.create ~seed:gseed in
  let port = Port.paravirt genv in
  let os = Ucos.create port in
  ignore
    (Ucos.spawn os ~name:"soak-ring" ~prio:4 (fun () ->
         match
           Ring_api.setup port ~entries:16 ~cvirq_budget:(Rng.int rng 3) ()
         with
         | Error _ ->
           while true do
             Ucos.delay os 1
           done
         | Ok r ->
           while true do
             Ucos.delay os (1 + Rng.int rng 3);
             let n = 1 + Rng.int rng 5 in
             let chosen =
               Array.init n (fun _ ->
                   tasks.(Rng.int rng (Array.length tasks)))
             in
             Array.iteri
               (fun i task ->
                  ignore
                    (Ring_api.enqueue port r ~op:`Request ~task
                       ~want_irq:(Rng.bool rng) ~tag:(i + 1) ()))
               chosen;
             (* One burst in four stays published but unrung: only a
                later doorbell — or kill-time reclamation — settles it. *)
             if Rng.int rng 4 > 0 then begin
               ignore (Ring_api.doorbell port r);
               List.iter
                 (fun (c : Ring_api.cqe) ->
                    (* Release what we won; tags outside [1..n] belong
                       to host-injected descriptors, not this burst. *)
                    if
                      c.Ring_api.tag >= 1 && c.Ring_api.tag <= n
                      && (c.Ring_api.status = Ring_api.status_success
                          || c.Ring_api.status = Ring_api.status_reconfig)
                      && Rng.int rng 4 > 0
                    then
                      ignore
                        (Ring_api.enqueue port r ~op:`Release
                           ~task:chosen.(c.Ring_api.tag - 1)
                           ~tag:c.Ring_api.tag ()))
                 (Ring_api.drain_completions port r);
               if Rng.bool rng then ignore (Ring_api.doorbell port r)
             end
           done));
  Ucos.run os

let profile_main profile ~gseed tasks =
  match profile mod profile_count with
  | 0 -> storm ~gseed tasks
  | 1 -> mapper ~gseed tasks
  | 2 -> dpr_churn ~gseed tasks
  | 3 -> ucos_jobs ~gseed tasks
  | _ -> ring_jobs ~gseed tasks

let profile_name = function
  | 0 -> "storm"
  | 1 -> "mapper"
  | 2 -> "dpr"
  | 3 -> "ucos"
  | _ -> "ring"

(* {2 The engine} *)

type world = {
  smp : Smp.t;
  tasks : Bitstream.id array;
  mutable churned : Bitstream.id list;  (* oldest first; churn-only tasks *)
  probes : (int, int * Event_queue.id) Hashtbl.t;  (* key -> (cpu, id) *)
  mutable nprobes : int;
  mutable vm_seq : int;
  mutable creates : int;
  mutable kills : int;
  mutable checks : int;
}

let boot cfg =
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms cfg.quantum_ms }
      ~fault_seed:cfg.fault_seed ~fault_rate:cfg.fault_rate
      ~pcpus:(max 1 cfg.pcpus) ()
  in
  let tasks =
    Array.map (Smp.register_hw_task smp)
      [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]
  in
  if cfg.check then Invariant.attach_smp smp;
  { smp; tasks; churned = []; probes = Hashtbl.create 64; nprobes = 0;
    vm_seq = 0; creates = 0; kills = 0; checks = 0 }

let live_guest_ids w =
  let ids = ref [] in
  for cpu = 0 to Smp.pcpus w.smp - 1 do
    List.iter
      (fun (pd : Pd.t) -> if Pd.is_guest pd then ids := pd.Pd.id :: !ids)
      (Kernel.pds (Smp.kernel w.smp cpu))
  done;
  List.sort compare !ids

let apply cfg w = function
  | A_create { profile; prio; gseed } ->
    if
      Smp.alive_guests w.smp
      < min cfg.max_vms (Address_map.guest_slot_count * Smp.pcpus w.smp)
    then begin
      let name = Printf.sprintf "soak%d-%s" w.vm_seq (profile_name (profile mod profile_count)) in
      w.vm_seq <- w.vm_seq + 1;
      w.creates <- w.creates + 1;
      ignore
        (Smp.create_vm w.smp ~name ~priority:(max 1 (prio mod 4))
           (profile_main profile ~gseed w.tasks))
    end
  | A_kill i ->
    (match live_guest_ids w with
     | [] -> ()
     | ids ->
       let id = List.nth ids (i mod List.length ids) in
       if Smp.kill_vm w.smp id ~reason:"soak kill" then
         w.kills <- w.kills + 1)
  | A_run us -> Smp.run_for w.smp (Cycles.of_us (float_of_int us))
  | A_probe d ->
    let cpu = w.nprobes mod Smp.pcpus w.smp in
    let queue = (Smp.zynq w.smp cpu).Zynq.queue in
    let id = Event_queue.schedule_after queue d ignore in
    Hashtbl.replace w.probes w.nprobes (cpu, id);
    w.nprobes <- w.nprobes + 1
  | A_probe_cancel k ->
    if w.nprobes > 0 then begin
      let cpu, id = Hashtbl.find w.probes (k mod w.nprobes) in
      Event_queue.cancel (Smp.zynq w.smp cpu).Zynq.queue id
    end
  | A_ring_burst { pick; n } ->
    (* Host-side descriptor injection: write raw descriptors straight
       into a live ring's submission page and advance the published
       tail, the way a DMA-capable device (or a hostile guest thread)
       would — bypassing every guest-side convenience. The kernel only
       accounts descriptors once a doorbell observes the tail, so an
       injected burst that the owner never rings must be settled by
       kill-time reclamation, which is exactly the path under test. *)
    (match
       List.concat
         (List.init (Smp.pcpus w.smp) (fun cpu ->
              List.map
                (fun v -> (cpu, v))
                (List.sort
                   (fun a b -> Int.compare a.Kernel.rv_pd b.Kernel.rv_pd)
                   (Kernel.ring_views (Smp.kernel w.smp cpu)))))
     with
     | [] -> ()
     | views ->
       let cpu, v = List.nth views (pick mod List.length views) in
       let mem = (Smp.zynq w.smp cpu).Zynq.mem in
       let sq = v.Kernel.rv_sq_phys in
       let rd a = Int32.to_int (Phys_mem.read_u32 mem a) land 0xFFFFFFFF in
       let wr a x = Phys_mem.write_u32 mem a (Int32.of_int x) in
       let tail = rd sq in
       let head = rd (sq + 4) in
       let room = v.Kernel.rv_entries - ((tail - head) land 0xFFFFFFFF) in
       let m = min n (max 0 room) in
       for k = 0 to m - 1 do
         let slot = (tail + k) land (v.Kernel.rv_entries - 1) in
         let d =
           sq + Guest_layout.ring_hdr_size
           + (slot * Guest_layout.ring_desc_size)
         in
         wr d 0;
         wr (d + 4) w.tasks.((pick + k) mod Array.length w.tasks);
         wr (d + 8)
           (Guest_layout.page_region_base + ((64 + k) * Addr.page_size));
         wr (d + 12) Guest_layout.default_data_section;
         wr (d + 16) Guest_layout.default_data_section_len;
         wr (d + 20) 0;
         wr (d + 24) (0x5000 + k)
       done;
       if m > 0 then wr sq ((tail + m) land 0xFFFFFFFF))
  | A_task_churn { kind } ->
    (* Register/destroy churn over the heterogeneous catalog: exercises
       the bitstream-store recycler (free-list allocation, coalescing)
       under a live fleet. Churned tasks are never handed to guests, so
       destroys only fail while the store refuses — both refusals are
       benign and deliberately tolerated. *)
    let catalog =
      [| Task_kind.Scramble 15; Task_kind.Digest 64;
         Task_kind.Fft_stream 256; Task_kind.Matmul 8;
         Task_kind.Fir 31; Task_kind.Qam 64 |]
    in
    (if List.length w.churned >= 4 then
       match w.churned with
       | oldest :: rest ->
         (match Smp.destroy_hw_task w.smp oldest with
          | Ok () -> w.churned <- rest
          | Error _ -> ())
       | [] -> ());
    (match
       Smp.try_register_hw_task w.smp
         catalog.(kind mod Array.length catalog)
     with
     | Ok id -> w.churned <- w.churned @ [ id ]
     | Error _ -> ())

let stats_of w ~actions =
  { ops_done = Smp.hypercalls w.smp + w.creates + w.kills;
    actions;
    creates = w.creates;
    kills = w.kills;
    crashes = Smp.crashes w.smp;
    hypercalls = Smp.hypercalls w.smp;
    live_vms = Smp.alive_guests w.smp;
    checks = w.checks;
    final_cycles = Smp.now w.smp }

(* Drive a fresh world with actions from [next] until it returns
   [None] or an invariant trips. Returns the trace of applied
   actions, the violation (if any) and final stats. *)
let drive cfg next =
  let w = boot cfg in
  let trace_rev = ref [] in
  let nactions = ref 0 in
  let violation = ref None in
  (try
     let continue = ref true in
     while !continue do
       match next w with
       | None -> continue := false
       | Some a ->
         trace_rev := a :: !trace_rev;
         incr nactions;
         apply cfg w a;
         if cfg.check then begin
           w.checks <- w.checks + 1;
           Invariant.raise_first_smp w.smp ~boundary:"op"
         end
     done
   with
   | Invariant.Violation v -> violation := Some v
   | Failure msg ->
     violation :=
       Some
         { Invariant.checker = "exception"; boundary = "op";
           detail = "Failure: " ^ msg }
   | Invalid_argument msg ->
     violation :=
       Some
         { Invariant.checker = "exception"; boundary = "op";
           detail = "Invalid_argument: " ^ msg });
  (List.rev !trace_rev, !violation, stats_of w ~actions:!nactions)

let gen_action rng =
  let r = Rng.int rng 100 in
  if r < 10 then
    A_create
      { profile = Rng.int rng profile_count; prio = 1 + Rng.int rng 3;
        gseed = Rng.int rng 1_000_000 }
  else if r < 18 then A_kill (Rng.int rng 1024)
  else if r < 24 then A_probe (1 + Rng.int rng 200_000)
  else if r < 28 then A_probe_cancel (Rng.int rng 1024)
  else if r < 33 then
    A_ring_burst { pick = Rng.int rng 1024; n = 1 + Rng.int rng 8 }
  else if r < 37 then A_task_churn { kind = Rng.int rng 16 }
  else A_run (20 + Rng.int rng 400)

let replay_raw cfg actions =
  let remaining = ref actions in
  drive cfg (fun _ ->
      match !remaining with
      | [] -> None
      | a :: tl ->
        remaining := tl;
        Some a)

(* Greedy delta debugging: repeatedly drop windows of the trace while
   the same checker still trips, halving the window on a fixed pass.
   Bounded by a replay budget so shrinking stays fast even for long
   traces. *)
let shrink cfg (violation : Invariant.violation) trace =
  let budget = ref 400 in
  let reproduces actions =
    if !budget <= 0 then false
    else begin
      decr budget;
      match replay_raw { cfg with check = true } actions with
      | _, Some v, _ -> v.Invariant.checker = violation.Invariant.checker
      | _, None, _ -> false
    end
  in
  let drop_window l i n =
    List.filteri (fun j _ -> j < i || j >= i + n) l
  in
  let current = ref trace in
  let chunk = ref (max 1 (List.length trace / 2)) in
  while !chunk >= 1 && !budget > 0 do
    let shrunk_this_pass = ref false in
    let i = ref 0 in
    while !i < List.length !current && !budget > 0 do
      let candidate = drop_window !current !i !chunk in
      if List.length candidate < List.length !current && reproduces candidate
      then begin
        current := candidate;
        shrunk_this_pass := true
        (* keep [i]: the window now holds the next actions *)
      end
      else i := !i + !chunk
    done;
    if !chunk = 1 && not !shrunk_this_pass then chunk := 0
    else chunk := !chunk / 2
  done;
  !current

let replay cfg actions =
  match replay_raw cfg actions with
  | _, None, stats -> Clean stats
  | trace, Some violation, stats ->
    Violated { violation; shrunk = trace; stats }

(* One shard's stream: generate actions from the seed and drive them;
   shrink on violation. *)
let run_stream cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let trace, violation, stats =
    drive cfg (fun w ->
        if Smp.hypercalls w.smp + w.creates + w.kills >= cfg.ops then None
        else Some (gen_action rng))
  in
  match violation with
  | None -> Clean stats
  | Some violation ->
    let shrunk = shrink cfg violation trace in
    Violated { violation; shrunk; stats }

(* {2 Sharded runs}

   The action stream is embarrassingly parallel at the shard
   granularity: every shard boots its own world from its own derived
   seed, so shards share nothing and can run on separate OCaml
   domains via {!Parallel_sweep}. The decomposition is fixed by
   [shards] alone — the domain budget ([MININOVA_DOMAINS]) only
   decides how many run concurrently — so results are bit-identical
   for any domain count. *)

let shard_seed ~seed ~shard =
  (* splitmix64 finalizer over (seed, shard): shard streams are
     decorrelated even for adjacent master seeds, and the result is
     masked positive so it round-trips through reproducer files. *)
  let open Int64 in
  let z =
    ref (add (of_int seed) (mul (of_int (shard + 1)) 0x9E3779B97F4A7C15L))
  in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3FFF_FFFF_FFFF_FFFFL)

let shard_config cfg ~shards ~shard =
  if shards <= 1 then cfg
  else begin
    let base = cfg.ops / shards and rem = cfg.ops mod shards in
    { cfg with
      ops = base + (if shard < rem then 1 else 0);
      seed = shard_seed ~seed:cfg.seed ~shard }
  end

type shard_report = {
  shard : int;
  shard_cfg : config;
  outcome : outcome;
  wall_s : float;
}

type sharded = {
  reports : shard_report list;
  merged_stats : stats;
  first_violated : shard_report option;
}

let stats_of_outcome = function
  | Clean s -> s
  | Violated { stats; _ } -> stats

let zero_stats =
  { ops_done = 0; actions = 0; creates = 0; kills = 0; crashes = 0;
    hypercalls = 0; live_vms = 0; checks = 0; final_cycles = 0 }

let add_stats a b =
  { ops_done = a.ops_done + b.ops_done;
    actions = a.actions + b.actions;
    creates = a.creates + b.creates;
    kills = a.kills + b.kills;
    crashes = a.crashes + b.crashes;
    hypercalls = a.hypercalls + b.hypercalls;
    live_vms = a.live_vms + b.live_vms;
    checks = a.checks + b.checks;
    final_cycles = a.final_cycles + b.final_cycles }

let run ?(shards = 1) cfg =
  let shards = max 1 shards in
  let reports =
    Parallel_sweep.map
      (fun shard ->
         let shard_cfg = shard_config cfg ~shards ~shard in
         let t0 = Unix.gettimeofday () in
         let outcome = run_stream shard_cfg in
         { shard; shard_cfg; outcome;
           wall_s = Unix.gettimeofday () -. t0 })
      (List.init shards Fun.id)
  in
  let merged_stats =
    List.fold_left
      (fun acc r -> add_stats acc (stats_of_outcome r.outcome))
      zero_stats reports
  in
  let first_violated =
    List.find_opt
      (fun r -> match r.outcome with Violated _ -> true | Clean _ -> false)
      reports
  in
  { reports; merged_stats; first_violated }

(* {2 Reproducer files} *)

(* The shortest %g form that parses back to the same float. *)
let exact_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let write_reproducer path cfg (violation : Invariant.violation) ~shrunk =
  let oc = open_out path in
  Printf.fprintf oc "# mininova soak reproducer\n";
  Printf.fprintf oc "# violation: %s\n"
    (Invariant.violation_to_string violation);
  Printf.fprintf oc "seed %d\n" cfg.seed;
  Printf.fprintf oc "ops %d\n" cfg.ops;
  Printf.fprintf oc "max-vms %d\n" cfg.max_vms;
  Printf.fprintf oc "fault-rate %s\n" (exact_float cfg.fault_rate);
  Printf.fprintf oc "fault-seed %d\n" cfg.fault_seed;
  Printf.fprintf oc "quantum-ms %s\n" (exact_float cfg.quantum_ms);
  (* Only written when SMP: reproducers without the line stay
     loadable as single-pCPU runs. *)
  if cfg.pcpus > 1 then Printf.fprintf oc "pcpus %d\n" cfg.pcpus;
  Printf.fprintf oc "actions\n";
  List.iter (fun a -> Printf.fprintf oc "%s\n" (action_to_string a)) shrunk;
  close_out oc

(* Header values go through their flags' own parsers: a reproducer
   holds nothing the command line would refuse. The first bad line is
   the error. *)
let load_reproducer path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let rec header c = function
      | [] -> Error "missing 'actions' section"
      | "actions" :: rest -> actions c [] rest
      | line :: rest ->
        let field parse v set =
          match parse v with
          | Ok x -> header (set x) rest
          | Error _ -> Error ("bad header line: " ^ line)
        in
        (match String.split_on_char ' ' line with
         | [ "seed"; v ] ->
           field Cli_args.seed.parse v (fun x -> { c with seed = x })
         | [ "ops"; v ] ->
           field Cli_args.ops.parse v (fun x -> { c with ops = x })
         | [ "max-vms"; v ] ->
           field (Cli_args.int_in 1 max_int) v (fun x -> { c with max_vms = x })
         | [ "fault-rate"; v ] ->
           field Cli_args.fault_rate.parse v (fun x -> { c with fault_rate = x })
         | [ "fault-seed"; v ] ->
           field Cli_args.fault_seed.parse v (fun x -> { c with fault_seed = x })
         | [ "quantum-ms"; v ] ->
           field Cli_args.quantum.parse v (fun x -> { c with quantum_ms = x })
         | [ "pcpus"; v ] ->
           field Cli_args.pcpus.parse v (fun x -> { c with pcpus = x })
         | _ -> Error ("bad header line: " ^ line))
    and actions c acc = function
      | [] -> Ok (c, List.rev acc)
      | line :: rest ->
        (match action_of_string line with
         | Some a -> actions c (a :: acc) rest
         | None -> Error ("bad action line: " ^ line))
    in
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> header { default_config with check = true }
