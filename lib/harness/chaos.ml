type config = {
  base : Scenario.config;
  fault_rate : float;
  fault_seed : int;
}

let default_config =
  { base = { Scenario.default_config with requests_per_guest = 40 };
    fault_rate = 0.1;
    fault_seed = 7 }

type report = {
  guests : int;
  fault_rate : float;
  injected : int;
  injected_by : (string * int) list;
  recoveries : int;
  reconfig_retries : int;
  hang_resets : int;
  quarantines : int;
  fault_kills : int;
  busy_retries : int;
  denied : int;
  jobs_attempted : int;
  jobs_ok : int;
  completion_rate : float;
  crashes : int;
  mgr_total_us : float;
  sim_ms : float;
  metrics : Obs.snapshot;
}

type tally = {
  mutable busy_retries : int;
  mutable denied : int;
  mutable attempted : int;
  mutable ok : int;
}

(* The resilient T_hw: acquire with exponential backoff, run a job,
   release. Failed acquires are counted, never fatal; the loop gives
   up after a bounded number of attempts so quarantined regions at
   high fault rates cannot wedge the guest. *)
let chaos_guest os rng ~cfg ~tasks ~tally () =
  let task_arr = Array.of_list tasks in
  let goal = cfg.base.Scenario.requests_per_guest in
  let acquired = ref 0 in
  let tries = ref 0 in
  while !acquired < goal && !tries < goal * 8 do
    incr tries;
    Ucos.delay os (2 + Rng.int rng 5);
    let task_id, kind = Rng.pick rng task_arr in
    match
      Hw_task_api.acquire os ~task:task_id ~want_irq:true ~backoff:true ()
    with
    | Error _ -> tally.denied <- tally.denied + 1
    | Ok h ->
      incr acquired;
      tally.busy_retries <- tally.busy_retries + h.Hw_task_api.retries;
      tally.attempted <- tally.attempted + 1;
      if Scenario.verified_job os rng h kind then tally.ok <- tally.ok + 1;
      Hw_task_api.release os h
  done;
  Ucos.stop os

let run ?(config = default_config) ~guests () =
  if guests < 1 then invalid_arg "Chaos.run: need at least one guest";
  let base = config.base in
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms base.Scenario.quantum_ms;
          vfp_policy = base.Scenario.vfp_policy;
          tlb_policy = base.Scenario.tlb_policy }
      ~observe:base.Scenario.observe ~fault_seed:config.fault_seed
      ~fault_rate:config.fault_rate ~pcpus:1 ()
  in
  let kern = Smp.kernel smp 0 and z = Smp.zynq smp 0 in
  let tasks =
    List.map
      (fun kind -> (Smp.register_hw_task smp kind, kind))
      Scenario.streamable_task_set
  in
  let tally = { busy_retries = 0; denied = 0; attempted = 0; ok = 0 } in
  for g = 0 to guests - 1 do
    let rng = Rng.create ~seed:(base.Scenario.seed + (97 * g)) in
    ignore
      (Smp.create_vm smp
         ~name:(Printf.sprintf "chaos%d" g)
         (fun genv ->
            let port = Port.paravirt genv in
            let os = Ucos.create port in
            ignore
              (Ucos.spawn os ~name:"t_hw" ~prio:8
                 (chaos_guest os (Rng.split rng) ~cfg:config ~tasks ~tally));
            Ucos.run os))
  done;
  Smp.run smp ~until:(Cycles.of_ms (120_000.0 *. float_of_int guests));
  let probe = Kernel.probe kern in
  let hwtm = Kernel.hwtm kern in
  let mean label =
    let s = Probe.stats probe label in
    if Stats.count s = 0 then 0.0
    else Cycles.to_us (int_of_float (Stats.mean s))
  in
  { guests;
    fault_rate = config.fault_rate;
    injected = Fault_plane.total_injected z.Zynq.faults;
    injected_by =
      List.map
        (fun f ->
           (Fault_plane.fault_name f, Fault_plane.injected z.Zynq.faults f))
        Fault_plane.all_faults;
    recoveries = Hw_task_manager.recoveries hwtm;
    reconfig_retries = Hw_task_manager.retries hwtm;
    hang_resets = Hw_task_manager.hang_resets hwtm;
    quarantines = Hw_task_manager.quarantines hwtm;
    fault_kills = probe.Probe.fault_kill;
    busy_retries = tally.busy_retries;
    denied = tally.denied;
    jobs_attempted = tally.attempted;
    jobs_ok = tally.ok;
    completion_rate =
      (if tally.attempted = 0 then 1.0
       else float_of_int tally.ok /. float_of_int tally.attempted);
    crashes = Kernel.crashes kern;
    mgr_total_us =
      mean Probe.hwtm_entry +. mean Probe.hwtm_exec +. mean Probe.hwtm_exit;
    sim_ms = Cycles.to_ms (Clock.now z.Zynq.clock);
    metrics = Obs.snapshot z.Zynq.obs }

let default_rates = [ 0.0; 0.05; 0.2 ]

let sweep ?(config = default_config) ?(max_guests = 4)
    ?(rates = default_rates) () =
  if max_guests < 1 then invalid_arg "Chaos.sweep: need at least one guest";
  (* Every (rate, guests) cell is an independent world: sweep them on
     domains, input order preserved. *)
  Parallel_sweep.run
    (List.concat_map
       (fun rate ->
          List.init max_guests (fun i ->
              fun () ->
                run ~config:{ config with fault_rate = rate }
                  ~guests:(i + 1) ()))
       rates)
