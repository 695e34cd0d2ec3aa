type kind = Fig8 | Ring_fleet | Trap_fleet | Churn

let all = [ Fig8; Ring_fleet; Trap_fleet; Churn ]

let name = function
  | Fig8 -> "fig8-4vm"
  | Ring_fleet -> "ring-fleet-64"
  | Trap_fleet -> "trap-fleet-smp4"
  | Churn -> "churn-chaos"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Tuned so one untraced instance takes 2-3 s on a 2-core x86-64 host:
   a 20 s run then repeats it seven to ten times (see README.md). *)
let default_size = function
  | Fig8 -> 500
  | Ring_fleet -> 8192
  | Trap_fleet -> 8192
  | Churn -> 12_000

let size_name = function
  | Fig8 -> "requests_per_guest"
  | Ring_fleet | Trap_fleet -> "jobs_per_guest"
  | Churn -> "horizon_ms"

let pcpus = function Trap_fleet -> 4 | Fig8 | Ring_fleet | Churn -> 1
let faulty = function Churn -> true | Fig8 | Ring_fleet | Trap_fleet -> false

type world = {
  smp : Smp.t;
  tallies : Guest_kit.tally list;
  lateness : Guest_kit.samples;
  sweeps : int ref;
  epochs : int ref;
  drive : unit -> unit;
}

let boot kind ~workers ~observe ?(quantum_ms = 33.0) ?(fault_rate = 0.0)
    ?(fault_seed = 0) () =
  let smp =
    Smp.create
      ~config:{ Kernel.default_config with quantum = Cycles.of_ms quantum_ms }
      ~workers ~pcpus:(pcpus kind)
      ~mk_zynq:(fun cpu ->
          Zynq.create ~observe ~fault_seed:(fault_seed + cpu) ~fault_rate ~cpu ())
      ()
  in
  let epochs = ref 0 in
  Smp.set_barrier_hook smp (Some (fun () -> incr epochs));
  (smp, epochs)

let run_to_exhaustion lc smp ~cap () =
  Layer_clock.timed lc Layer_clock.kernel (fun () -> Smp.run smp ~until:cap)

let compute lc os pin =
  Layer_clock.timed lc Layer_clock.ucos_compute (fun () ->
      Ucos.compute_pinned os pin)

let wl lc f = Layer_clock.timed lc Layer_clock.workloads f

(* {2 fig8-4vm: the paper's Fig 8 guests}

   Each µC/OS VM runs GSM-LPC, ADPCM and a 96 KB cache-churn task at
   the footprints of the evaluation scenario, plus T_hw: a closed loop
   of hardware-task requests with a verified DMA job on every second
   one. Guest compute and footprint charging dominate host time. *)

let app = Ucos_layout.app_code_base
let gsm_buf = Guest_layout.user_base + 0x0010_0000
let adpcm_buf = Guest_layout.user_base + 0x0012_0000
let churn_buf = Guest_layout.user_base + 0x0020_0000

let fp ~label ~code_off ~code_len ~read ~write ~base_cycles =
  Exec.pin1
    { Exec.label;
      code = { Exec.base = app + code_off; len = code_len };
      reads = [ read ];
      writes = [ write ];
      base_cycles }

(* Per-guest compute budgets, in iterations per T_hw request: about
   what the tasks complete while T_hw runs when they loop forever, as
   in the evaluation scenario. Fixed budgets keep the host work of an
   instance independent of the seed. *)
let gsm_per_request = 18
let adpcm_per_request = 22
let churn_per_request = 64

let gsm_task lc os rng ~frames () =
  let pins =
    Array.init 4 (fun i ->
        fp ~label:"gsm" ~code_off:0x0000 ~code_len:1792
          ~read:{ Exec.base = gsm_buf + (i * 4096); len = 4096 }
          ~write:{ Exec.base = gsm_buf + 16384; len = 256 }
          ~base_cycles:14000)
  in
  for phase = 1 to frames do
    let lars =
      wl lc (fun () -> Gsm_lpc.analyze (Signal.speech_like rng Gsm_lpc.frame_size))
    in
    if Array.length lars <> 8 then failwith "gsm: bad LPC output";
    compute lc os pins.(phase mod 4);
    if phase mod 4 = 0 then Ucos.delay os 1
  done

let adpcm_task lc os rng ~blocks () =
  let pins =
    Array.init 4 (fun i ->
        fp ~label:"adpcm" ~code_off:0x1000 ~code_len:1280
          ~read:{ Exec.base = adpcm_buf + (i * 4096); len = 4096 }
          ~write:{ Exec.base = adpcm_buf + 16384 + (i * 4096); len = 2048 }
          ~base_cycles:11000)
  in
  for phase = 1 to blocks do
    let err = wl lc (fun () -> Adpcm.roundtrip_error (Signal.speech_like rng 1024)) in
    if err > 20000 then failwith "adpcm: diverged";
    compute lc os pins.(phase mod 4);
    if phase mod 5 = 0 then Ucos.delay os 1
  done

let churn_kb = 96

let churn_task lc os ~chunks () =
  let set_bytes = churn_kb * 1024 and chunk = 8192 in
  let pins =
    Array.init (set_bytes / chunk) (fun i ->
        let off = i * chunk in
        fp ~label:"churn" ~code_off:0x2000 ~code_len:512
          ~read:{ Exec.base = churn_buf + off; len = chunk }
          ~write:{ Exec.base = churn_buf + ((off + (set_bytes / 2)) mod set_bytes);
                   len = chunk / 4 }
          ~base_cycles:26000)
  in
  for i = 0 to chunks - 1 do
    compute lc os pins.(i mod Array.length pins)
  done

(* Poll the status hypercall until the task's PRR is configured; false
   if the allocation was lost meanwhile or never became ready. *)
let wait_ready os task =
  let port = Ucos.port os in
  let rec loop n =
    n > 0
    &&
    match port.Port.hw_status ~task with
    | Hyper.R_status { prr_ready = true; _ } -> true
    | Hyper.R_status { consistent = false; _ } -> false
    | _ ->
      Ucos.delay os 1;
      loop (n - 1)
  in
  loop 1000

(* T_hw: the paper's measurement task. Odd requests acquire a task of
   the standard set and hold it or release it at random; even ones
   carry a verified DMA job on an FFT of up to 1024 points (the sizes
   the whole-job helper streams) — the benchmark's jobs, timed from the
   request to the verified result. FFT jobs nearly always wait for a
   reconfiguration of one of the two large PRRs; mixing in QAM jobs,
   which mostly find their PRR configured, puts the median on the edge
   between those two modes, where it jumps from seed to seed. *)
let t_hw lc os rng (st : Guest_kit.tally) ~tasks ~requests () =
  let clock = (Ucos.port os).Port.zynq.Zynq.clock in
  let streamable_fft =
    Array.of_list
      (List.filter
         (fun (_, k) -> match k with Task_kind.Fft n -> n <= 1024 | _ -> false)
         (Array.to_list tasks))
  in
  let plain = Guest_kit.deck rng tasks and with_job = Guest_kit.deck rng streamable_fft in
  for r = 1 to requests do
    Ucos.delay os (2 + Rng.int rng 5);
    let job = r mod 2 = 0 in
    let task, kind = if job then with_job () else plain () in
    let t0 = Clock.now clock in
    if job then st.attempted <- st.attempted + 1;
    match Hw_task_api.acquire os ~task ~want_irq:true ~wait_ready:false () with
    | Error _ -> if job then Guest_kit.settle st ~ok:false ~latency:(Clock.now clock - t0)
    | Ok h ->
      if job then begin
        let ok =
          wait_ready os task
          &&
          match Guest_kit.verified_job lc os rng h kind with
          | Guest_kit.Verified -> true
          | Mismatch ->
            st.mismatches <- st.mismatches + 1;
            false
          | Failed | Unverifiable -> false
        in
        Guest_kit.settle st ~ok ~latency:(Clock.now clock - t0)
      end;
      if Rng.bool rng then Hw_task_api.release os h
  done

let fig8 ~size ~seed ~workers ~observe lc =
  let smp, epochs = boot Fig8 ~workers ~observe () in
  let tasks =
    Array.of_list
      (List.map (fun k -> (Smp.register_hw_task smp k, k)) Scenario.standard_task_set)
  in
  let tallies = List.init 4 (fun _ -> Guest_kit.tally ()) in
  List.iteri
    (fun g st ->
       let rng = Rng.create ~seed:(seed + (97 * g)) in
       ignore
         (Smp.create_vm smp ~name:(Printf.sprintf "ucos%d" g)
            (Guest_kit.guest_main lc (fun genv ->
                 let os = Ucos.create (Guest_kit.wrap_port lc st (Port.paravirt genv)) in
                 let spawn name prio body = ignore (Ucos.spawn os ~name ~prio body) in
                 spawn "t_hw" 8 (t_hw lc os (Rng.split rng) st ~tasks ~requests:size);
                 spawn "gsm" 10
                   (gsm_task lc os (Rng.split rng) ~frames:(gsm_per_request * size));
                 spawn "adpcm" 12
                   (adpcm_task lc os (Rng.split rng) ~blocks:(adpcm_per_request * size));
                 spawn "churn" 14 (churn_task lc os ~chunks:(churn_per_request * size));
                 Ucos.run os))))
    tallies;
  { smp; tallies; lateness = Guest_kit.samples ();
    sweeps = ref 0; epochs;
    drive = run_to_exhaustion lc smp ~cap:(Cycles.of_ms (200.0 *. float_of_int size)) }

(* {2 Fleets: one µC/OS victim plus bare ABI guests} *)

let fleet_task_set = [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]
let busy_retries = 3

(* The victim: want_irq DMA jobs end to end under µC/OS, as in the
   density and partition studies. *)
let victim lc (st : Guest_kit.tally) ~tasks ~jobs ~rng genv =
  let os = Ucos.create (Guest_kit.wrap_port lc st (Port.paravirt genv)) in
  let clock = genv.Kernel.env_zynq.Zynq.clock in
  let next_task = Guest_kit.deck rng tasks in
  ignore
    (Ucos.spawn os ~name:"victim" ~prio:4 (fun () ->
         for _ = 1 to jobs do
           Ucos.delay os (1 + Rng.int rng 2);
           let task = next_task () in
           let t0 = Clock.now clock in
           st.attempted <- st.attempted + 1;
           let ok =
             match
               Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
                 ~max_tries:25 ()
             with
             | Error _ -> false
             | Ok h ->
               let off = Hw_task_api.data_in_off in
               Hw_task_api.start os h ~src_off:off ~dst_off:(off + 8192) ~len:64
                 ~param:4;
               let o = Hw_task_api.wait_done os h in
               Hw_task_api.release os h;
               o = `Done
           in
           Guest_kit.settle st ~ok ~latency:(Clock.now clock - t0)
         done;
         Ucos.stop os));
  Ucos.run os

(* ABI v1 guest: one [Hw_task_request] trap per attempt and a release
   per win; [Hw_busy] is retried after a pause up to [busy_retries]
   times. *)
let fleet_v1 lc (st : Guest_kit.tally) ~tasks ~jobs ~rng genv =
  let p = Guest_kit.wrap_port lc st (Port.paravirt genv) in
  let clock = genv.Kernel.env_zynq.Zynq.clock in
  let next_task = Guest_kit.deck rng tasks in
  for _ = 1 to jobs do
    let task = next_task () in
    let t0 = Clock.now clock in
    st.attempted <- st.attempted + 1;
    let rec attempt tries =
      match
        p.Port.hw_request ~task
          ~iface_vaddr:(Guest_layout.default_iface_vaddr (task land 7))
          ~data_vaddr:Guest_layout.default_data_section
          ~data_len:Guest_layout.default_data_section_len ~want_irq:false
      with
      | Hyper.R_hw { status = Hyper.Hw_success | Hyper.Hw_reconfig; _ } ->
        ignore (p.Port.hw_release ~task);
        true
      | Hyper.R_hw { status = Hyper.Hw_busy; _ } when tries < busy_retries ->
        ignore (p.Port.pause ());
        attempt (tries + 1)
      | _ -> false
    in
    let ok = attempt 0 in
    Guest_kit.settle st ~ok ~latency:(Clock.now clock - t0);
    ignore (p.Port.pause ())
  done

(* ABI v2 guest: batches of [batch] request descriptors and the
   previous round's releases share one doorbell; busy jobs ride the
   next round, up to [busy_retries] extra rounds. Release tags are
   biased so their completions never read as request outcomes. *)
let batch = 8
let release_tag_bias = 0x1000

let fleet_v2 lc (st : Guest_kit.tally) ~tasks ~jobs ~rng genv =
  let p = Guest_kit.wrap_port lc st (Port.paravirt genv) in
  let clock = genv.Kernel.env_zynq.Zynq.clock in
  let ring f = Layer_clock.timed lc Layer_clock.ring_api f in
  let next_task = Guest_kit.deck rng tasks in
  match Ring_api.setup p ~entries:32 ~cvirq_budget:8 () with
  | Error e -> failwith ("ring setup: " ^ e)
  | Ok r ->
    let to_release = ref [] in
    let flush_releases () =
      List.iter
        (fun (tag, task) ->
           ignore
             (ring (fun () ->
                  Ring_api.enqueue p r ~op:`Release ~task ~tag:(tag + release_tag_bias) ())))
        !to_release;
      to_release := []
    in
    let submitted = ref 0 in
    while !submitted < jobs do
      let n = min batch (jobs - !submitted) in
      let chosen = Array.init n (fun _ -> next_task ()) in
      let issued = Array.make n 0 in
      st.attempted <- st.attempted + n;
      let pending = ref (List.init n (fun i -> i + 1)) in
      let round = ref 0 in
      while !pending <> [] && !round <= busy_retries do
        flush_releases ();
        List.iter
          (fun tag ->
             if !round = 0 then issued.(tag - 1) <- Clock.now clock;
             ignore
               (ring (fun () ->
                    Ring_api.enqueue p r ~op:`Request ~task:chosen.(tag - 1) ~tag ())))
          !pending;
        ignore (Ring_api.doorbell p r);
        let retry = ref [] in
        List.iter
          (fun (c : Ring_api.cqe) ->
             let tag = c.Ring_api.tag in
             if tag >= 1 && tag <= n then begin
               let s = c.Ring_api.status in
               if s = Ring_api.status_busy then retry := tag :: !retry
               else begin
                 let ok = s = Ring_api.status_success || s = Ring_api.status_reconfig in
                 if ok then to_release := (tag, chosen.(tag - 1)) :: !to_release;
                 Guest_kit.settle st ~ok
                   ~latency:(Clock.now clock - issued.(tag - 1))
               end
             end)
          (ring (fun () -> Ring_api.drain_completions p r));
        pending := List.rev !retry;
        incr round;
        ignore (p.Port.pause ())
      done;
      List.iter
        (fun tag ->
           Guest_kit.settle st ~ok:false ~latency:(Clock.now clock - issued.(tag - 1)))
        !pending;
      submitted := !submitted + n
    done;
    if !to_release <> [] then begin
      flush_releases ();
      ignore (Ring_api.doorbell p r);
      ignore (ring (fun () -> Ring_api.drain_completions p r))
    end

let fleet kind ~guests ~guest ~size ~seed ~workers ~observe lc =
  let smp, epochs = boot kind ~workers ~observe ~quantum_ms:2.0 () in
  let tasks = Array.map (Smp.register_hw_task smp) fleet_task_set in
  let vst = Guest_kit.tally () in
  ignore
    (Smp.create_vm smp ~name:"victim" ~cpu:0
       (Guest_kit.guest_main lc
          (victim lc vst ~tasks ~jobs:size ~rng:(Rng.create ~seed:(seed + 101)))));
  let fleet =
    List.init (guests - 1) (fun i ->
        let st = Guest_kit.tally () in
        let rng = Rng.create ~seed:(seed + (7919 * (i + 1))) in
        ignore
          (Smp.create_vm smp ~name:(Printf.sprintf "f%d" (i + 1))
             (Guest_kit.guest_main lc (guest lc st ~tasks ~jobs:size ~rng)));
        st)
  in
  let cap = Cycles.of_ms (500.0 +. (4.0 *. float_of_int (guests * size))) in
  { smp; tallies = vst :: fleet; lateness = Guest_kit.samples ();
    sweeps = ref 0; epochs; drive = run_to_exhaustion lc smp ~cap }

(* {2 churn-chaos: open-loop jobs under faults, kills and checks}

   Six slots, each a µC/OS guest whose worker issues verified jobs over
   the heterogeneous catalog at pregenerated Poisson due times. Every
   250 ms of simulated time the oldest live guest is killed and a fresh
   incarnation takes over its slot's schedule; the job it had in
   flight is lost. The invariant plane runs at every kernel boundary
   through the benchmark's own check hook. *)

let churn_slots = 6
let churn_mean_us = 14000.0
let churn_fault_rate = 0.1
let kill_period_ms = 250.0

type slot = {
  index : int;
  due : int array;             (* arrival times, cycles *)
  mutable next : int;          (* next arrival to issue *)
  mutable pd : int;
  mutable born : int;          (* creation order, for "oldest" *)
  mutable incarnation : int;
  st : Guest_kit.tally;
}

let churn_worker lc os rng slot ~tasks ~lateness () =
  let clock = (Ucos.port os).Port.zynq.Zynq.clock in
  let st = slot.st in
  let next_task = Guest_kit.deck rng tasks in
  while slot.next < Array.length slot.due do
    let due = slot.due.(slot.next) and now = Clock.now clock in
    if now < due then
      Ucos.delay os (max 1 ((due - now + Ucos.tick_interval - 1) / Ucos.tick_interval))
    else begin
      slot.next <- slot.next + 1;
      Guest_kit.push lateness (now - due);
      st.attempted <- st.attempted + 1;
      let task, kind = next_task () in
      let ok =
        match
          Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true ~max_tries:40 ()
        with
        | Error _ -> false
        | Ok h ->
          let o = Guest_kit.verified_job lc os rng h kind in
          Hw_task_api.release os h;
          (match o with
           | Guest_kit.Verified -> true
           | Mismatch ->
             st.mismatches <- st.mismatches + 1;
             false
           | Failed | Unverifiable -> false)
      in
      Guest_kit.settle st ~ok ~latency:(Clock.now clock - due)
    end
  done;
  Ucos.stop os

let churn ~size ~seed ~workers ~observe lc =
  let smp, epochs =
    boot Churn ~workers ~observe ~fault_rate:churn_fault_rate ~fault_seed:(seed + 7) ()
  in
  let tasks =
    Array.map (fun k -> (Smp.register_hw_task smp k, k)) Partition.partition_task_set
  in
  let kern = Smp.kernel smp 0 in
  let sweeps = ref 0 in
  Kernel.set_check_hook kern
    (Some
       (fun boundary ->
          incr sweeps;
          Layer_clock.timed lc Layer_clock.check (fun () ->
              Invariant.raise_first kern ~boundary)));
  let horizon = Cycles.of_ms (float_of_int size) in
  let lateness = Guest_kit.samples () in
  let slots =
    Array.init churn_slots (fun index ->
        let arng = Rng.create ~seed:(seed + (9173 * index) + 1) in
        let rec arrivals t acc =
          let t = t +. Rng.exponential arng ~mean:churn_mean_us in
          let c = Cycles.of_us t in
          if c >= horizon then Array.of_list (List.rev acc) else arrivals t (c :: acc)
        in
        { index; due = arrivals 0.0 []; next = 0; pd = -1;
          born = 0; incarnation = 0; st = Guest_kit.tally () })
  in
  let births = ref 0 in
  let spawn slot =
    let rng =
      Rng.create ~seed:(seed + (7919 * (slot.index + 1)) + (131 * slot.incarnation))
    in
    let pd =
      Smp.create_vm smp
        ~name:(Printf.sprintf "churn%d.%d" slot.index slot.incarnation)
        (Guest_kit.guest_main lc (fun genv ->
             let os =
               Ucos.create (Guest_kit.wrap_port lc slot.st (Port.paravirt genv))
             in
             ignore
               (Ucos.spawn os ~name:"worker" ~prio:8
                  (churn_worker lc os rng slot ~tasks ~lateness));
             Ucos.run os))
    in
    slot.pd <- pd.Pd.id;
    slot.born <- !births;
    incr births
  in
  Array.iter spawn slots;
  let cap = horizon + Cycles.of_ms 60_000.0 in
  let kill_oldest () =
    let live = List.filter (fun s -> Smp.vm_cpu smp s.pd <> None) (Array.to_list slots) in
    match List.sort (fun a b -> compare a.born b.born) live with
    | [] -> ()
    | s :: _ ->
      (* A job in flight dies with the guest: attempted, never ok. *)
      if Smp.kill_vm smp s.pd ~reason:"churn" then begin
        s.incarnation <- s.incarnation + 1;
        spawn s
      end
  in
  let drive () =
    while Smp.alive_guests smp > 0 && Smp.now smp < cap do
      Layer_clock.timed lc Layer_clock.kernel (fun () ->
          Smp.run_for smp (Cycles.of_ms kill_period_ms);
          if Smp.alive_guests smp > 0 then kill_oldest ())
    done
  in
  { smp; tallies = Array.to_list (Array.map (fun s -> s.st) slots);
    lateness; sweeps; epochs; drive }

let setup kind ~size ~seed ~workers ~observe lc =
  match kind with
  | Fig8 -> fig8 ~size ~seed ~workers ~observe lc
  | Ring_fleet ->
    fleet Ring_fleet ~guests:64 ~guest:fleet_v2 ~size ~seed ~workers ~observe lc
  | Trap_fleet ->
    fleet Trap_fleet ~guests:32 ~guest:fleet_v1 ~size ~seed ~workers ~observe lc
  | Churn -> churn ~size ~seed ~workers ~observe lc
