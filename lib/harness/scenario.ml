type config = {
  seed : int;
  requests_per_guest : int;
  warmup_requests : int;
  quantum_ms : float;
  tlb_policy : [ `Asid | `Flush_all ];
  vfp_policy : [ `Lazy | `Active ];
  job_fraction : int;
  observe : bool;
  pcpus : int;
}

let churn_kb = 96

let default_config =
  { seed = 42;
    requests_per_guest = 60;
    warmup_requests = 10;
    quantum_ms = 33.0;
    tlb_policy = `Asid;
    vfp_policy = `Lazy;
    job_fraction = 4;
    observe = false;
    pcpus = 1 }

type overheads = {
  entry_us : float;
  exit_us : float;
  plirq_us : float;
  exec_us : float;
  total_us : float;
  samples : int;
  reconfigs : int;
  reclaims : int;
  jobs : int;
  hwmmu_violations : int;
  sim_ms : float;
  sim_cycles : int;
  metrics : Obs.snapshot;
}

let standard_task_set =
  [ Task_kind.Fft 256; Task_kind.Fft 512; Task_kind.Fft 1024;
    Task_kind.Fft 2048; Task_kind.Fft 4096; Task_kind.Fft 8192;
    Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Qam 64 ]

let streamable_task_set =
  [ Task_kind.Fft 256; Task_kind.Fft 512; Task_kind.Fft 1024;
    Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Qam 64 ]

(* ------------------------------------------------------------------ *)
(* Guest workload (identical for the native and virtualized runs).    *)

let app = Ucos_layout.app_code_base

(* Application virtual data areas, inside the guest-user region. *)
let gsm_buf = Guest_layout.user_base + 0x0010_0000
let adpcm_buf = Guest_layout.user_base + 0x0012_0000
let churn_buf = Guest_layout.user_base + 0x0020_0000

let fp ~label ~code_off ~code_len ?(reads = []) ?(writes = [])
    ?(base_cycles = 0) () =
  { Exec.label;
    code = { Exec.base = app + code_off; len = code_len };
    reads; writes; base_cycles }

(* A guest task over four loop-invariant phase footprints: [pin i]
   interns phase [i]'s as a pinned trace once, on the task's first
   run, instead of rebuilding a footprint per block. The task sleeps
   one tick every [every] phases. *)
let phased_task os ~every pin () =
  let pins = Array.init 4 pin in
  let phase = ref 0 in
  while true do
    let i = !phase mod 4 in
    phase := !phase + 1;
    Ucos.compute_pinned os pins.(i);
    if !phase mod every = 0 then Ucos.delay os 1
  done

(* GSM-LPC encoder task: a charged footprint over its frame/coefficient
   buffers. The simulated cost is the footprint alone; the codec itself
   (Gsm_lpc) is not run on the host. *)
let gsm_task os =
  phased_task os ~every:4 (fun i ->
      Exec.pin1
        (fp ~label:"gsm" ~code_off:0x0000 ~code_len:1792
           ~reads:[ { Exec.base = gsm_buf + (i * 4096); len = 4096 } ]
           ~writes:[ { Exec.base = gsm_buf + 16384; len = 256 } ]
           ~base_cycles:14000 ()))

(* IMA ADPCM compression task: a charged footprint per block, like the
   GSM task (Adpcm is not run on the host). *)
let adpcm_task os =
  phased_task os ~every:5 (fun i ->
      let off = i * 4096 in
      Exec.pin1
        (fp ~label:"adpcm" ~code_off:0x1000 ~code_len:1280
           ~reads:[ { Exec.base = adpcm_buf + off; len = 4096 } ]
           ~writes:[ { Exec.base = adpcm_buf + 16384 + off; len = 2048 } ]
           ~base_cycles:11000 ()))

(* Cache-churn task: walks a working set to model the rest of the
   guest's memory traffic (the paper's "heavy workload"). The walk
   revisits a small cycle of offsets; pinned traces are interned per
   offset on first visit. *)
let churn_task os () =
  let set_bytes = churn_kb * 1024 in
  let chunk = 8192 in
  let pins = Hashtbl.create 16 in
  let pin_for off =
    match Hashtbl.find_opt pins off with
    | Some p -> p
    | None ->
      let p =
        Exec.pin1
          (fp ~label:"churn" ~code_off:0x2000 ~code_len:512
             ~reads:[ { Exec.base = churn_buf + off; len = chunk } ]
             ~writes:[ { Exec.base =
                           churn_buf + ((off + (set_bytes / 2)) mod set_bytes);
                         len = chunk / 4 } ]
             ~base_cycles:26000 ())
      in
      Hashtbl.replace pins off p;
      p
  in
  let pos = ref 0 in
  while true do
    let off = !pos in
    pos := (!pos + chunk) mod set_bytes;
    Ucos.compute_pinned os (pin_for off)
  done

exception Done_requests

(* Wait until the manager reports the task's PRR configured. *)
let wait_ready os task =
  let port = Ucos.port os in
  let rec loop n =
    if n <= 0 then false
    else
      match port.Port.hw_status ~task with
      | Hyper.R_status { prr_ready = true; _ } -> true
      | _ ->
        Ucos.delay os 1;
        loop (n - 1)
  in
  loop 1000

(* Run one real DMA job through the acquired task and verify the
   result against the software reference. An [Error _] from the job
   helpers is a failed job (false). A result mismatch fails the guest
   when [strict] (the Table III guest, which runs fault-free); the
   chaos and SLO guests — whose whole point is surviving faults — count
   it as a failed job instead, since silent corruption is expected. *)
let run_job ~strict os rng h kind =
  let verified msg ok =
    if strict && not ok then failwith msg;
    ok
  in
  match kind with
  | Task_kind.Qam order ->
    let bps = Qam.bits_per_symbol (Qam.order_of_int order) in
    let bits = Array.init (bps * 32) (fun _ -> Rng.int rng 2) in
    (match Hw_task_api.run_qam_mod os h ~order ~bits with
     | Ok (i, q) ->
       verified "qam job: roundtrip mismatch"
         (Qam.demodulate (Qam.order_of_int order) ~i ~q = bits)
     | Error _ -> false)
  | (Task_kind.Fft points | Task_kind.Fft_stream points)
    when points <= 1024 ->
    let re = Array.init points (fun i -> sin (0.1 *. float_of_int i)) in
    let im = Array.make points 0.0 in
    (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
     | Ok (hr, hi) ->
       let sr = Array.copy re and si = Array.copy im in
       Fft.transform sr si;
       verified "fft job: result mismatch"
         (Float.max (Fft.max_error hr sr) (Fft.max_error hi si)
          <= 0.05 *. float_of_int points)
     | Error _ -> false)
  | Task_kind.Scramble _ ->
    (* Self-inverse: scrambling the scrambled block with the same seed
       must restore the input. *)
    let data = Array.init 256 (fun _ -> Rng.int rng 256) in
    (match Hw_task_api.run_scramble os h ~seed:0x1D5B ~data with
     | Ok once ->
       (match Hw_task_api.run_scramble os h ~seed:0x1D5B ~data:once with
        | Ok back -> verified "scramble job: roundtrip mismatch" (back = data)
        | Error _ -> false)
     | Error _ -> false)
  | Task_kind.Digest _ ->
    (* Deterministic: the same block digests to the same 32 bytes. *)
    let data = Array.init 128 (fun i -> (i * 37) land 0xff) in
    (match Hw_task_api.run_digest os h ~tweak:7 ~data,
           Hw_task_api.run_digest os h ~tweak:7 ~data with
     | Ok a, Ok b -> verified "digest job: nondeterministic output" (a = b)
     | _ -> false)
  | Task_kind.Matmul n when n <= 16 ->
    let a = Array.init (n * n) (fun i -> sin (0.3 *. float_of_int i)) in
    (match Hw_task_api.run_matmul os h ~a with
     | Ok c ->
       let err = ref 0.0 in
       for r = 0 to n - 1 do
         for col = 0 to n - 1 do
           let acc = ref 0.0 in
           for k = 0 to n - 1 do
             acc := !acc +. (a.((r * n) + k) *. a.((k * n) + col))
           done;
           err := Float.max !err (Float.abs (c.((r * n) + col) -. !acc))
         done
       done;
       verified "matmul job: result mismatch" (!err <= 0.01)
     | Error _ -> false)
  | Task_kind.Fft _ | Task_kind.Fft_stream _ | Task_kind.Fir _
  | Task_kind.Matmul _ ->
    false (* not streamable *)

let verified_job = run_job ~strict:false

(* T_hw: the paper's measurement task — pick a random hardware task,
   issue the request hypercall, sometimes exercise the task. It stops
   the OS however it ends, so a failed strict job check (a task crash)
   ends the guest at once. *)
let t_hw_task os rng ~cfg ~tasks ~on_request () =
  let task_arr = Array.of_list tasks in
  let requests = ref 0 in
  let jobs = ref 0 in
  Fun.protect ~finally:(fun () -> Ucos.stop os) @@ fun () ->
  try
    while true do
      Ucos.delay os (2 + Rng.int rng 5);
      let task_id, kind = Rng.pick rng task_arr in
      match
        Hw_task_api.acquire os ~task:task_id ~want_irq:true
          ~wait_ready:false ()
      with
      | Error _ -> () (* busy this round; the paper's guest retries *)
      | Ok h ->
        incr requests;
        on_request ();
        if !requests mod cfg.job_fraction = 0 && wait_ready os task_id
        then begin
          if run_job ~strict:true os rng h kind then incr jobs
        end;
        if Rng.bool rng then Hw_task_api.release os h;
        if !requests >= cfg.requests_per_guest then raise Done_requests
    done
  with Done_requests -> ()

(* The Table III guest OS, run to its end; returns its crash (a failed
   strict job check) for the harness to raise. *)
let run_guest os ~rng ~cfg ~tasks ~on_request =
  ignore
    (Ucos.spawn os ~name:"t_hw" ~prio:8
       (t_hw_task os (Rng.split rng) ~cfg ~tasks ~on_request));
  ignore (Ucos.spawn os ~name:"gsm" ~prio:10 (gsm_task os));
  ignore (Ucos.spawn os ~name:"adpcm" ~prio:12 (adpcm_task os));
  ignore
    (Ucos.spawn os ~name:"churn" ~prio:14
       (churn_task os));
  Ucos.run os;
  Ucos.crash os

(* ------------------------------------------------------------------ *)

(* Guard against configurations that would discard every sample. *)
let sanitize config =
  if config.warmup_requests >= config.requests_per_guest then
    { config with warmup_requests = config.requests_per_guest / 2 }
  else config

let mean_us stats =
  if Stats.count stats = 0 then 0.0
  else Cycles.to_us (int_of_float (Stats.mean stats))

let run_virtualized ?(config = default_config) ~guests () =
  if guests < 1 then invalid_arg "run_virtualized: need at least one guest";
  if config.pcpus < 1 then
    invalid_arg "run_virtualized: need at least one pCPU";
  let config = sanitize config in
  (* The guests are spread round-robin over the complex; one pCPU is
     the single kernel. *)
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms config.quantum_ms;
          vfp_policy = config.vfp_policy;
          tlb_policy = config.tlb_policy }
      ~observe:config.observe ~pcpus:config.pcpus ()
  in
  let tasks =
    List.map
      (fun kind -> (Smp.register_hw_task smp kind, kind))
      standard_task_set
  in
  let manager f = Fleet.sum_kernels smp (fun k -> f (Kernel.hwtm k)) in
  let jobs () =
    Fleet.sum_boards smp (fun z -> Prr_controller.jobs_completed z.Zynq.prrc)
  in
  (* Warm-up discard, one pCPU only: it resets probe and observability
     state from guest context, which is neither safe nor meaningful
     while other pCPUs are mid-epoch on other domains — a multi-pCPU
     run reports whole-run aggregates and ignores [warmup_requests]. *)
  let base_counts = ref (0, 0, 0) in
  let on_request =
    if config.pcpus > 1 then ignore
    else begin
      let total_requests = ref 0 in
      let warm_at = guests * config.warmup_requests in
      fun () ->
        incr total_requests;
        if !total_requests = warm_at then begin
          Probe.reset (Kernel.probe (Smp.kernel smp 0));
          (* [on_request] fires in guest context, after the acquire
             hypercall returned — no span is open, so the reset is
             legal. *)
          Obs.reset (Smp.zynq smp 0).Zynq.obs;
          base_counts :=
            (manager Hw_task_manager.reconfigs,
             manager Hw_task_manager.reclaims, jobs ())
        end
    end
  in
  let crashes = Array.make guests None in
  for g = 0 to guests - 1 do
    let rng = Rng.create ~seed:(config.seed + (97 * g)) in
    ignore
      (Smp.create_vm smp
         ~name:(Printf.sprintf "ucos%d" g)
         (fun genv ->
            let os = Ucos.create (Port.paravirt genv) in
            crashes.(g) <-
              run_guest os ~rng ~cfg:config ~tasks ~on_request))
  done;
  (* Safety cap well beyond what the request counts need. *)
  Smp.run smp ~until:(Cycles.of_ms (120_000.0 *. float_of_int guests));
  Array.iter (Option.iter raise) crashes;
  (* Per-path means merge every node's probe (parallel Welford merge;
     with one node the merge is that node's stats). *)
  let merged label =
    List.fold_left
      (fun acc cpu ->
         Stats.merge acc (Probe.stats (Kernel.probe (Smp.kernel smp cpu)) label))
      (Stats.create ())
      (List.init config.pcpus Fun.id)
  in
  let entry = merged Probe.hwtm_entry
  and exit_ = merged Probe.hwtm_exit
  and exec = merged Probe.hwtm_exec
  and plirq = merged Probe.pl_irq_entry in
  let rc0, rl0, j0 = !base_counts in
  let sim_cycles = Smp.now smp in
  { entry_us = mean_us entry;
    exit_us = mean_us exit_;
    plirq_us = mean_us plirq;
    exec_us = mean_us exec;
    total_us = mean_us entry +. mean_us exec +. mean_us exit_;
    samples = Stats.count exec;
    reconfigs = manager Hw_task_manager.reconfigs - rc0;
    reclaims = manager Hw_task_manager.reclaims - rl0;
    jobs = jobs () - j0;
    hwmmu_violations =
      Fleet.sum_boards smp (fun z ->
          let v = ref 0 in
          for i = 0 to Prr_controller.prr_count z.Zynq.prrc - 1 do
            v :=
              !v
              + Hw_mmu.violations (Prr_controller.prr z.Zynq.prrc i).Prr.hw_mmu
          done;
          !v);
    sim_ms = Cycles.to_ms sim_cycles;
    sim_cycles;
    metrics = Obs.snapshot (Smp.zynq smp 0).Zynq.obs }

let run_native ?(config = default_config) () =
  let config = sanitize config in
  let sys = Port_native.create () in
  let z = Port_native.zynq sys in
  let tasks =
    List.map
      (fun kind -> (Port_native.register_hw_task sys kind, kind))
      standard_task_set
  in
  let exec_stats = Stats.create () in
  let requests = ref 0 in
  (* Natively the manager is a plain function call: entry, exit and
     PL-IRQ distribution cost nothing extra; execution is measured
     around the call (paper Table III, "Native" column). *)
  let base_port = Port_native.port sys in
  let warm_at = config.warmup_requests in
  let live_stats = ref exec_stats in
  let base_counts = ref (0, 0, 0) in
  let on_request () =
    incr requests;
    if !requests = warm_at then begin
      live_stats := Stats.create ();
      base_counts :=
        ( Hw_task_manager.reconfigs (Port_native.hwtm sys),
          Hw_task_manager.reclaims (Port_native.hwtm sys),
          Prr_controller.jobs_completed z.Zynq.prrc )
    end
  in
  (* Time each manager call into whichever accumulator is live. *)
  let timed_port =
    { base_port with
      Port.hw_request =
        (fun ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq ->
           let t0 = Clock.now z.Zynq.clock in
           let r =
             base_port.Port.hw_request ~task ~iface_vaddr ~data_vaddr
               ~data_len ~want_irq
           in
           (match r with
            | Hyper.R_hw _ ->
              Stats.add !live_stats
                (float_of_int (Clock.now z.Zynq.clock - t0))
            | _ -> ());
           r) }
  in
  let rng = Rng.create ~seed:config.seed in
  Port_native.run sys (fun _ ->
      let os = Ucos.create timed_port in
      Option.iter raise (run_guest os ~rng ~cfg:config ~tasks ~on_request));
  let exec = !live_stats in
  let rc0, rl0, j0 = !base_counts in
  { entry_us = 0.0;
    exit_us = 0.0;
    plirq_us = 0.0;
    exec_us = mean_us exec;
    total_us = mean_us exec;
    samples = Stats.count exec;
    reconfigs = Hw_task_manager.reconfigs (Port_native.hwtm sys) - rc0;
    reclaims = Hw_task_manager.reclaims (Port_native.hwtm sys) - rl0;
    jobs = Prr_controller.jobs_completed z.Zynq.prrc - j0;
    hwmmu_violations = 0;
    sim_ms = Cycles.to_ms (Clock.now z.Zynq.clock);
    sim_cycles = Clock.now z.Zynq.clock;
    metrics = Obs.snapshot z.Zynq.obs }
