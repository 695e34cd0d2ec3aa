(* Open-loop tail-latency SLO plane.

   The Table III workload is closed-loop: each guest issues its next
   hardware-task request only after the previous one finished, so
   queueing delay — the thing that kills p99 at load — is structurally
   invisible. Here arrivals are generated open-loop by the simulation
   event queue from a seeded arrival process (Poisson or bursty
   on-off), independent of service progress; a per-VM worker task
   drains its arrival queue through the ordinary acquire → DMA job →
   completion-vIRQ path and the harness records sojourn (arrival →
   completion) and service (submit → completion) times in log2
   histograms, extracted as p50/p99/p999 with {!Obs.percentile}.

   VM 0 is the victim: its arrival rate can be pinned while the
   aggressor VMs' load varies, which yields the interference matrix
   (victim percentiles vs aggressor load). Fault injection reuses the
   chaos plane's seeded {!Fault_plane}; VM kill/recreate churn drives
   {!Kernel.kill_vm} between run slices at deterministic simulated
   times. Everything is derived from the simulated clock and seeded
   RNGs — no wall time — so a fixed seed reproduces the report bit for
   bit, and the measurement registry lives harness-side so the
   simulated cycle count is identical with the board's observability
   plane on or off. *)

type process = Poisson | Bursty

let process_name = function Poisson -> "poisson" | Bursty -> "bursty"

type config = {
  seed : int;
  guests : int;
  process : process;
  arrivals_per_guest : int;
  mean_interarrival_us : float;
  victim_interarrival_us : float option;
  fault_rate : float;
  churn_kills : int;
  observe : bool;
  pcpus : int;
}

let burst_on_ms = 6.0
let burst_off_ms = 12.0
let quantum_ms = 33.0
let fault_seed = 7

let default_config =
  { seed = 42;
    guests = 3;
    process = Poisson;
    arrivals_per_guest = 120;
    mean_interarrival_us = 4000.0;
    victim_interarrival_us = None;
    fault_rate = 0.0;
    churn_kills = 0;
    observe = false;
    pcpus = 1 }

type vm_stats = {
  vm : int;
  role : string;
  arrivals : int;
  served : int;
  ok : int;
  dropped : int;
  max_depth : int;
  service_p50_us : float;
  service_p99_us : float;
  service_p999_us : float;
  service_max_us : float;
  sojourn_p50_us : float;
  sojourn_p99_us : float;
  sojourn_p999_us : float;
  sojourn_max_us : float;
}

type report = {
  guests : int;
  pcpus : int;
  process : process;
  mean_interarrival_us : float;
  victim_interarrival_us : float;
  arrivals_per_guest : int;
  fault_rate : float;
  churn_kills : int;
  vms : vm_stats list;
  max_depth : int;  (** max total backlog across all VM queues *)
  prrs : Fleet.prr_util list;
  injected : int;
  kills : int;
  crashes : int;
  sim_ms : float;
  sim_cycles : int;
  metrics : Obs.snapshot;
}

(* ------------------------------------------------------------------ *)
(* Arrival processes.                                                 *)

(* Absolute arrival times (cycles) for one VM, pregenerated from its
   own seeded stream so they are independent of service progress and
   of any other VM. Bursty is an on-off modulated Poisson process:
   during ON windows arrivals come at the conditional rate
   [mean · duty] so the long-run rate matches the plain Poisson case;
   an arrival falling into an OFF window slides to the next ON start. *)
let arrival_times (cfg : config) rng ~mean_us ~n =
  match cfg.process with
  | Poisson ->
    let t = ref 0.0 in
    List.init n (fun _ ->
        t := !t +. Rng.exponential rng ~mean:mean_us;
        Cycles.of_us !t)
  | Bursty ->
    let on_us = burst_on_ms *. 1000.0 in
    let off_us = burst_off_ms *. 1000.0 in
    let period = on_us +. off_us in
    let mean_on = mean_us *. (on_us /. period) in
    let t = ref 0.0 in
    List.init n (fun _ ->
        t := !t +. Rng.exponential rng ~mean:mean_on;
        let ph = Float.rem !t period in
        if ph >= on_us then t := !t +. (period -. ph);
        Cycles.of_us !t)

(* ------------------------------------------------------------------ *)
(* Per-VM state shared between the arrival events, the worker task
   and the churn driver. It survives a kill: the recreated VM's worker
   keeps draining the same queue, so requests spanning the outage pay
   for it in their sojourn time — exactly the churn tail story. *)

type vm_state = {
  g : int;
  queue : Cycles.t Queue.t;  (* arrival timestamps awaiting service *)
  mutable arrived : int;
  mutable served : int;
  mutable ok : int;
  mutable dropped : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable inflight : bool;   (* worker popped but not yet recorded *)
  mutable finished : bool;   (* full budget served *)
  service : Obs.histogram;   (* submit → completion, cycles *)
  sojourn : Obs.histogram;   (* arrival → completion, cycles *)
}

exception Drained

let worker os rng ~st ~clock ~tasks ~budget ~global_depth () =
  let task_arr = Array.of_list tasks in
  (try
     while st.served < budget do
       match Queue.take_opt st.queue with
       | None ->
         if st.arrived >= budget then raise Drained
         else Ucos.delay os 1 (* open-loop: wait for the next arrival *)
       | Some t_arr ->
         st.depth <- st.depth - 1;
         decr global_depth;
         st.inflight <- true;
         let task_id, kind = Rng.pick rng task_arr in
         (match
            Hw_task_api.acquire os ~task:task_id ~want_irq:true
              ~backoff:true ~max_tries:40 ()
          with
          | Error _ ->
            st.served <- st.served + 1;
            st.dropped <- st.dropped + 1
          | Ok h ->
            let t_pick = Clock.now clock in
            let ok = Scenario.verified_job os rng h kind in
            let t_done = Clock.now clock in
            st.served <- st.served + 1;
            if ok then st.ok <- st.ok + 1;
            Obs.observe st.service (t_done - t_pick);
            Obs.observe st.sojourn (t_done - t_arr);
            Hw_task_api.release os h);
         st.inflight <- false
     done
   with Drained -> ());
  st.finished <- true;
  Ucos.stop os

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.guests < 1 then invalid_arg "Slo.run: need at least one guest";
  if cfg.pcpus < 1 then invalid_arg "Slo.run: need at least one pCPU";
  if cfg.arrivals_per_guest < 1 then
    invalid_arg "Slo.run: need at least one arrival";
  let pcpus = cfg.pcpus in
  (* VM g lives on pCPU [g mod pcpus] for its whole life (churn
     recreates it in place): the victim always owns pCPU 0, and a VM's
     arrival events fire on its own node's event queue. *)
  let vm_cpu g = g mod pcpus in
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with quantum = Cycles.of_ms quantum_ms }
      ~fault_seed ~fault_rate:cfg.fault_rate
      ~observe:cfg.observe ~pcpus ()
  in
  let tasks =
    List.map
      (fun kind -> (Smp.register_hw_task smp kind, kind))
      Scenario.streamable_task_set
  in
  (* Measurements live in a harness-owned, always-on registry so the
     report exists with the board's plane off — and the simulated
     cycles stay identical either way, since nothing here advances the
     clock. *)
  let meas = Obs.create () in
  let budget = cfg.arrivals_per_guest in
  let victim_ia =
    Option.value cfg.victim_interarrival_us ~default:cfg.mean_interarrival_us
  in
  (* Backlog tracking is per pCPU: each cell is touched only by the
     domain simulating that node, so the parallel phase stays
     race-free and deterministic. With one pCPU this is exactly the
     old whole-board counter. *)
  let node_depth = Array.init pcpus (fun _ -> ref 0) in
  let node_max_depth = Array.make pcpus 0 in
  let states =
    Array.init cfg.guests (fun g ->
        { g;
          queue = Queue.create ();
          arrived = 0; served = 0; ok = 0; dropped = 0;
          depth = 0; max_depth = 0;
          inflight = false; finished = false;
          service = Obs.histogram meas (Printf.sprintf "svc%d" g);
          sojourn = Obs.histogram meas (Printf.sprintf "soj%d" g) })
  in
  Array.iteri
    (fun g st ->
       let cpu = vm_cpu g in
       let queue = (Smp.zynq smp cpu).Zynq.queue in
       let depth = node_depth.(cpu) in
       let mean_us = if g = 0 then victim_ia else cfg.mean_interarrival_us in
       let arng = Rng.create ~seed:(cfg.seed + (9173 * g) + 1) in
       List.iter
         (fun at ->
            ignore
              (Event_queue.schedule_at queue at (fun () ->
                   st.arrived <- st.arrived + 1;
                   Queue.push (Event_queue.now queue) st.queue;
                   st.depth <- st.depth + 1;
                   if st.depth > st.max_depth then st.max_depth <- st.depth;
                   incr depth;
                   if !depth > node_max_depth.(cpu) then
                     node_max_depth.(cpu) <- !depth)))
         (arrival_times cfg arng ~mean_us ~n:budget))
    states;
  let pd_ids = Array.make cfg.guests (-1) in
  let spawn_vm g incarnation =
    let st = states.(g) in
    let cpu = vm_cpu g in
    let clock = (Smp.zynq smp cpu).Zynq.clock in
    let wrng =
      Rng.create ~seed:(cfg.seed + (7919 * (g + 1)) + (131 * incarnation))
    in
    let name =
      if incarnation = 0 then Printf.sprintf "slo%d" g
      else Printf.sprintf "slo%d.%d" g incarnation
    in
    let pd =
      Smp.create_vm smp ~name ~cpu (fun genv ->
          let port = Port.paravirt genv in
          let os = Ucos.create port in
          ignore
            (Ucos.spawn os ~name:"slo_worker" ~prio:8
               (worker os (Rng.split wrng) ~st ~clock ~tasks
                  ~budget ~global_depth:node_depth.(cpu)));
          Ucos.run os)
    in
    pd_ids.(g) <- pd.Pd.id
  in
  for g = 0 to cfg.guests - 1 do
    spawn_vm g 0
  done;
  let horizon_us =
    float_of_int budget *. Float.max cfg.mean_interarrival_us victim_ia
  in
  let cap = Cycles.of_us (horizon_us *. 8.0) + Cycles.of_ms 2000.0 in
  let kills_done = ref 0 in
  let kill_times =
    (* Deterministic simulated times rotating over the aggressor VMs
       (never the victim), spread over the AGGRESSOR arrival horizon —
       a pinned slow victim must not push the kills past the point
       where every aggressor has already drained and stopped. *)
    if cfg.churn_kills <= 0 || cfg.guests < 2 then []
    else
      let aggressor_horizon_us =
        float_of_int budget *. cfg.mean_interarrival_us
      in
      List.init cfg.churn_kills (fun k ->
          let frac = float_of_int (k + 1) /. float_of_int (cfg.churn_kills + 1) in
          ( Cycles.of_us (aggressor_horizon_us *. frac),
            1 + (k mod (cfg.guests - 1)) ))
  in
  (match kill_times with
   | [] -> Smp.run smp ~until:cap
   | kills ->
     (* Kill/recreate must happen between run slices (which are epoch
        barriers in the SMP case — never mid-parallel-phase), so the
        driver advances in 1 ms slices and applies due kills at the
        boundaries. *)
     let pending = ref kills in
     let incarnations = Array.make cfg.guests 0 in
     let slice = Cycles.of_ms 1.0 in
     let all_finished () =
       Array.for_all (fun st -> st.finished) states
     in
     let stuck = ref false in
     while (not (all_finished ())) && (not !stuck)
           && Smp.now smp < cap do
       (match !pending with
        | (at, g) :: rest when Smp.now smp >= at ->
          pending := rest;
          let st = states.(g) in
          if (not st.finished) && Smp.kill_vm smp pd_ids.(g) ~reason:"slo churn"
          then begin
            incr kills_done;
            if st.inflight then begin
              (* The request the worker held dies with the VM. *)
              st.inflight <- false;
              st.served <- st.served + 1;
              st.dropped <- st.dropped + 1
            end;
            incarnations.(g) <- incarnations.(g) + 1;
            spawn_vm g incarnations.(g)
          end
        | _ -> ());
       let before = Smp.now smp in
       Smp.run_for smp slice;
       if Smp.now smp = before && Smp.alive_guests smp = 0
       then stuck := true (* nothing can ever run again *)
     done);
  let sim_cycles = Smp.now smp in
  let msnap = Obs.snapshot meas in
  let hist name =
    List.find_opt (fun (d : Obs.hist_data) -> d.Obs.h_name = name)
      msnap.Obs.s_hists
  in
  let pct name q =
    match hist name with
    | Some d ->
      (match Obs.percentile d q with
       | Some c -> Cycles.to_us (int_of_float c)
       | None -> 0.0)
    | None -> 0.0
  in
  let hmax name =
    match hist name with
    | Some { Obs.h_max = Some m; _ } -> Cycles.to_us m
    | Some { Obs.h_max = None; _ } | None -> 0.0
  in
  let vms =
    List.init cfg.guests (fun g ->
        let st = states.(g) in
        let svc = Printf.sprintf "svc%d" g in
        let soj = Printf.sprintf "soj%d" g in
        { vm = g;
          role = (if g = 0 then "victim" else "aggressor");
          arrivals = st.arrived;
          served = st.served;
          ok = st.ok;
          dropped = st.dropped;
          max_depth = st.max_depth;
          service_p50_us = pct svc 0.5;
          service_p99_us = pct svc 0.99;
          service_p999_us = pct svc 0.999;
          service_max_us = hmax svc;
          sojourn_p50_us = pct soj 0.5;
          sojourn_p99_us = pct soj 0.99;
          sojourn_p999_us = pct soj 0.999;
          sojourn_max_us = hmax soj })
  in
  { guests = cfg.guests;
    pcpus;
    process = cfg.process;
    mean_interarrival_us = cfg.mean_interarrival_us;
    victim_interarrival_us = victim_ia;
    arrivals_per_guest = budget;
    fault_rate = cfg.fault_rate;
    churn_kills = cfg.churn_kills;
    vms;
    max_depth = Array.fold_left max 0 node_max_depth;
    prrs = Fleet.prr_utilisation smp ~sim_cycles;
    injected =
      Fleet.sum_boards smp (fun z -> Fault_plane.total_injected z.Zynq.faults);
    kills = !kills_done;
    crashes = Smp.crashes smp;
    sim_ms = Cycles.to_ms sim_cycles;
    sim_cycles;
    metrics = Obs.snapshot (Smp.zynq smp 0).Zynq.obs }

(* ------------------------------------------------------------------ *)
(* The bench matrix: Poisson + bursty at two load levels, the chaos
   on/off pair, churn, and the victim-alone baseline. The victim's
   rate is pinned in every cell, so reading its row across solo → low
   → high is the interference matrix. *)

let bench_matrix (base : config) =
  let base = { base with victim_interarrival_us = Some 8000.0 } in
  let low = 8000.0 and high = 2500.0 in
  [ ("victim/solo", { base with guests = 1 });
    ("poisson/low", { base with mean_interarrival_us = low });
    ("poisson/high", { base with mean_interarrival_us = high });
    ("bursty/low", { base with process = Bursty; mean_interarrival_us = low });
    ("bursty/high", { base with process = Bursty; mean_interarrival_us = high });
    ("chaos/on", { base with mean_interarrival_us = high; fault_rate = 0.1 });
    ("churn", { base with mean_interarrival_us = high; churn_kills = 2 }) ]

(* One report as a JSON object, with the board observability snapshot
   (and the kernel's per-VM virq_turnaround percentiles derived from
   it) when the run observed. *)
let report_json r =
  let open Json_out in
  let observed =
    if not r.metrics.Obs.s_enabled then []
    else
      (* Per-VM submit→completion-vIRQ turnaround measured kernel-side,
         keyed by PD id (stable while the VM lives; churn-recreated VMs
         get fresh ids and therefore fresh rows). *)
      let turnaround (c : Obs.cell) =
        let p q =
          match Obs.cell_percentile c q with
          | Some cyc -> Float (Cycles.to_us (int_of_float cyc))
          | None -> Null
        in
        Obj
          [ ("pd", Int c.Obs.c_key);
            ("calls", Int c.Obs.c_calls);
            ("p50_us", p 0.5);
            ("p99_us", p 0.99);
            ("p999_us", p 0.999);
            ("max_us", Float (Cycles.to_us c.Obs.c_max_cycles)) ]
      in
      [ ( "virq_turnaround",
          List
            (List.filter_map
               (fun (c : Obs.cell) ->
                  if c.Obs.c_component = "virq_turnaround" then
                    Some (turnaround c)
                  else None)
               r.metrics.Obs.s_cells) );
        ("metrics", Obs.snapshot_to_json r.metrics) ]
  in
  Line
    (Obj
       ([ ("process", Str (process_name r.process));
          ("guests", Int r.guests);
          ("pcpus", Int r.pcpus);
          ("mean_interarrival_us", Float r.mean_interarrival_us);
          ("victim_interarrival_us", Float r.victim_interarrival_us);
          ("arrivals_per_guest", Int r.arrivals_per_guest);
          ("fault_rate", Float r.fault_rate);
          ("churn_kills", Int r.churn_kills);
          ("kills", Int r.kills);
          ("injected", Int r.injected);
          ("crashes", Int r.crashes);
          ("max_queue_depth", Int r.max_depth);
          ("sim_ms", Float r.sim_ms);
          ("sim_cycles", Int r.sim_cycles);
          ( "vms",
            List
              (List.map
                 (fun v ->
                    Obj
                      [ ("vm", Int v.vm);
                        ("role", Str v.role);
                        ("arrivals", Int v.arrivals);
                        ("served", Int v.served);
                        ("ok", Int v.ok);
                        ("dropped", Int v.dropped);
                        ("max_queue_depth", Int v.max_depth);
                        ("service_p50_us", Float v.service_p50_us);
                        ("service_p99_us", Float v.service_p99_us);
                        ("service_p999_us", Float v.service_p999_us);
                        ("service_max_us", Float v.service_max_us);
                        ("sojourn_p50_us", Float v.sojourn_p50_us);
                        ("sojourn_p99_us", Float v.sojourn_p99_us);
                        ("sojourn_p999_us", Float v.sojourn_p999_us);
                        ("sojourn_max_us", Float v.sojourn_max_us) ])
                 r.vms) );
          ("prr_utilisation", Fleet.prr_util_json ~pinned:false r.prrs) ]
        @ observed))
