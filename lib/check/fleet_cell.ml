(* One victim-plus-fleet cell, the world E8 (density) and E10
   (partitioning) both sweep: the fixed µC/OS victim on pCPU 0 beside
   [vms - 1] bare-effect fleet guests under one hypercall ABI and one
   PRR partition, run until every guest has finished. Every
   measurement comes from the observability plane (which never
   advances the simulated clock) or from kernel and manager totals, so
   a cell is deterministic in its config alone. *)

type abi = V1 | V2

type config = {
  seed : int;
  vms : int;
  jobs_per_vm : int;
  abi : abi;
  batch : int;
  partition : Hw_task_manager.partition;
  fault_rate : float;
  tasks : Task_kind.t array;
  stagger : bool;
  check : bool;
  pcpus : int;
}

let ring_entries = 32
let cvirq_budget = 8
let quantum_ms = 2.0
let fault_seed = 7

type report = {
  config : config;
  jobs_submitted : int;
  jobs_ok : int;
  jobs_busy : int;
  jobs_denied : int;
  jobs_failed : int;
  transitions : int;
  transitions_per_job : float;
  overhead_us_per_job : float;
  hypercalls : int;
  ring : Kernel.ring_stats;
  requests : int;
  reclaims : int;
  reconfigs : int;
  recoveries : int;
  pcap_transfers : int;
  pcap_failures : int;
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
  victim_virqs : int;
  victim_p50_us : float;
  victim_p99_us : float;
  prrs : Fleet.prr_util list;
  injected : int;
  crashes : int;
  alive_after : int;
  sim_ms : float;
  sim_cycles : int;
}

(* {2 Guests} *)

(* Per-VM job counts shared between the host and a guest closure. *)
type tally = {
  mutable sub : int;
  mutable ok : int;
  mutable busy : int;     (* given up after [busy_retries] busy answers *)
  mutable denied : int;   (* refused outright (static partitioning) *)
  mutable failed : int;
}

let tally () = { sub = 0; ok = 0; busy = 0; denied = 0; failed = 0 }

(* The PRR pool is heavily over-committed at high density, so a guest
   that never retried a busy answer would finish with almost nothing.
   Under v1 every retry is a fresh hypercall; under v2 retries ride the
   next doorbell together with the previous round's releases, which is
   the transition saving E8 quantifies. *)
let busy_retries = 3

let victim ~seed ~jobs st tasks genv =
  let os = Ucos.create (Port.paravirt genv) in
  let rng = Rng.create ~seed:(seed + 101) in
  ignore
    (Ucos.spawn os ~name:"victim" ~prio:4 (fun () ->
         for j = 0 to jobs - 1 do
           Ucos.delay os (1 + Rng.int rng 2);
           let task = tasks.(j mod Array.length tasks) in
           st.sub <- st.sub + 1;
           (match
              Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
                ~max_tries:25 ()
            with
            | Error _ -> st.failed <- st.failed + 1
            | Ok h ->
              let off = Hw_task_api.data_in_off in
              Hw_task_api.start os h ~src_off:off ~dst_off:(off + 8192)
                ~len:64 ~param:4;
              ignore (Hw_task_api.wait_done os h);
              Hw_task_api.release os h;
              st.ok <- st.ok + 1)
         done;
         Ucos.stop os));
  Ucos.run os

(* ABI v1: job [j] requests [tasks.((offset + j) mod n)] once per
   attempt, releases each win and pauses after every job. *)
let fleet_v1 ~jobs ~offset st tasks _genv =
  for j = 0 to jobs - 1 do
    let task = tasks.((offset + j) mod Array.length tasks) in
    st.sub <- st.sub + 1;
    let rec attempt tries =
      match
        Hyper.hypercall
          (Hyper.Hw_task_request
             { task;
               iface_vaddr = Guest_layout.default_iface_vaddr (task land 7);
               data_vaddr = Guest_layout.default_data_section;
               data_len = Guest_layout.default_data_section_len;
               want_irq = false })
      with
      | Hyper.R_hw { status = Hyper.Hw_success | Hyper.Hw_reconfig; _ } ->
        st.ok <- st.ok + 1;
        ignore (Hyper.hypercall (Hyper.Hw_task_release { task }))
      | Hyper.R_hw { status = Hyper.Hw_denied; _ } ->
        (* A static denial never clears: retrying would only inflate
           the transition count. *)
        st.denied <- st.denied + 1
      | Hyper.R_hw { status = Hyper.Hw_busy; _ } ->
        if tries < busy_retries then begin
          ignore (Hyper.pause ());
          attempt (tries + 1)
        end
        else st.busy <- st.busy + 1
      | _ -> st.failed <- st.failed + 1
    in
    attempt 0;
    ignore (Hyper.pause ())
  done

(* ABI v2: the same job stream batched through the ring. Each round
   publishes the batch's outstanding requests — and the releases won
   in the previous round — with a single doorbell; busy jobs stay
   pending for the next round. Release descriptors carry
   [tag + release_tag_bias] so their completions can't be mistaken for
   request outcomes. A round enqueues at most [2 * batch] descriptors,
   which {!run} keeps within the ring. *)
let release_tag_bias = 0x1000

let fleet_v2 (cfg : config) ~offset st tasks genv =
  let p = Port.paravirt genv in
  match
    Ring_api.setup p ~entries:ring_entries ~cvirq_budget ()
  with
  | Error _ -> ()
  | Ok r ->
    let to_release = ref [] in
    let flush_releases () =
      List.iter
        (fun (tag, task) ->
           ignore
             (Ring_api.enqueue p r ~op:`Release ~task
                ~tag:(tag + release_tag_bias) ()))
        !to_release;
      to_release := []
    in
    let submitted = ref 0 in
    while !submitted < cfg.jobs_per_vm do
      let n = min cfg.batch (cfg.jobs_per_vm - !submitted) in
      let chosen =
        Array.init n (fun i ->
            tasks.((offset + !submitted + i) mod Array.length tasks))
      in
      st.sub <- st.sub + n;
      let pending = ref (List.init n (fun i -> i + 1)) in
      let round = ref 0 in
      while !pending <> [] && !round <= busy_retries do
        flush_releases ();
        List.iter
          (fun tag ->
             ignore
               (Ring_api.enqueue p r ~op:`Request ~task:chosen.(tag - 1)
                  ~tag ()))
          !pending;
        ignore (Ring_api.doorbell p r);
        let retry = ref [] in
        List.iter
          (fun (c : Ring_api.cqe) ->
             if c.Ring_api.tag >= 1 && c.Ring_api.tag <= n then begin
               if
                 c.Ring_api.status = Ring_api.status_success
                 || c.Ring_api.status = Ring_api.status_reconfig
               then begin
                 st.ok <- st.ok + 1;
                 to_release :=
                   (c.Ring_api.tag, chosen.(c.Ring_api.tag - 1))
                   :: !to_release
               end
               else if c.Ring_api.status = Ring_api.status_busy then
                 retry := c.Ring_api.tag :: !retry
               else st.failed <- st.failed + 1
             end)
          (Ring_api.drain_completions p r);
        pending := List.rev !retry;
        incr round;
        ignore (Hyper.pause ())
      done;
      st.busy <- st.busy + List.length !pending;
      submitted := !submitted + n
    done;
    if !to_release <> [] then begin
      flush_releases ();
      ignore (Ring_api.doorbell p r);
      ignore (Ring_api.drain_completions p r)
    end

(* {2 Boot-time static layout}

   Each node's PRRs are pinned round-robin over that node's own VMs
   (each pCPU cluster has its own PL), with the victim first on pCPU 0.
   More VMs than PRRs leaves the tail VMs unpinned: their requests are
   all denied, which is exactly the static baseline's inflexibility E10
   quantifies. *)
let pin_static smp ~victim_pd =
  let vms =
    victim_pd
    :: List.sort compare
         (List.filter (( <> ) victim_pd) (List.map fst (Smp.directory smp)))
  in
  for cpu = 0 to Smp.pcpus smp - 1 do
    let owners = List.filter (fun id -> Smp.vm_cpu smp id = Some cpu) vms in
    if owners <> [] then begin
      let hwtm = Kernel.hwtm (Smp.kernel smp cpu) in
      let prrc = (Smp.zynq smp cpu).Zynq.prrc in
      for i = 0 to Prr_controller.prr_count prrc - 1 do
        match
          Hw_task_manager.pin_prr hwtm ~prr_id:i
            ~client_id:(List.nth owners (i mod List.length owners))
        with
        | Ok () -> ()
        | Error e -> invalid_arg ("Fleet_cell.run: " ^ e)
      done
    end
  done

(* {2 Read-outs} *)

(* PD [pd]'s completion-vIRQ turnaround cell on pCPU 0: samples, p50
   and p99 in µs (all zero if it recorded nothing). *)
let turnaround smp ~pd =
  match
    List.find_opt
      (fun (c : Obs.cell) ->
         c.Obs.c_component = "virq_turnaround" && c.Obs.c_key = pd)
      (Obs.snapshot (Smp.zynq smp 0).Zynq.obs).Obs.s_cells
  with
  | None -> (0, 0.0, 0.0)
  | Some c ->
    let us q =
      match Obs.cell_percentile c q with
      | Some cyc -> Cycles.to_us (int_of_float cyc)
      | None -> 0.0
    in
    (c.Obs.c_calls, us 0.5, us 0.99)

(* Fleet guests issue nothing but ABI traffic, so their per-PD
   hypercall cells are exactly the guest→kernel transition count the
   v1/v2 comparison is about. PD ids are complex-global, so summing
   over every node's registry double-counts nothing. *)
let abi_traffic smp ~pds =
  List.fold_left
    (fun acc cpu ->
       List.fold_left
         (fun (n, cyc) (c : Obs.cell) ->
            if c.Obs.c_component = "hypercall" && List.mem c.Obs.c_key pds
            then (n + c.Obs.c_calls, cyc + c.Obs.c_cycles)
            else (n, cyc))
         acc (Obs.snapshot (Smp.zynq smp cpu).Zynq.obs).Obs.s_cells)
    (0, 0)
    (List.init (Smp.pcpus smp) Fun.id)

let ring_totals smp =
  let nodes =
    List.init (Smp.pcpus smp) (fun cpu ->
        Kernel.ring_stats (Smp.kernel smp cpu))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 nodes in
  { Kernel.rs_enqueued = sum (fun r -> r.Kernel.rs_enqueued);
    rs_completed = sum (fun r -> r.Kernel.rs_completed);
    rs_reclaimed = sum (fun r -> r.Kernel.rs_reclaimed);
    rs_doorbells = sum (fun r -> r.Kernel.rs_doorbells);
    rs_empty_doorbells = sum (fun r -> r.Kernel.rs_empty_doorbells);
    rs_virqs = sum (fun r -> r.Kernel.rs_virqs);
    rs_max_batch =
      List.fold_left (fun m r -> max m r.Kernel.rs_max_batch) 0 nodes;
    rs_asid_steals = sum (fun r -> r.Kernel.rs_asid_steals) }

(* {2 One cell} *)

let run cfg =
  let fail what = invalid_arg ("Fleet_cell.run: " ^ what) in
  if cfg.vms < 1 then fail "need at least one VM";
  if cfg.pcpus < 1 then fail "need at least one pCPU";
  (* pCPU 0 carries the victim plus its round-robin share of the
     fleet; each node has its own slot table. *)
  if 1 + (((cfg.vms - 1) + cfg.pcpus - 1) / cfg.pcpus)
     > Address_map.guest_slot_count
  then fail "vms exceeds the guest slot count";
  if cfg.jobs_per_vm < 1 then fail "need at least one job";
  if cfg.batch < 1 then fail "need a positive batch";
  (* A v2 round enqueues up to [batch] requests plus the previous
     round's releases; past half the ring a full ring drops them. *)
  if cfg.batch > ring_entries / 2 then
    fail (Printf.sprintf "batch exceeds %d (half the ring)" (ring_entries / 2));
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms quantum_ms;
          partition = cfg.partition }
      ~observe:true ~fault_seed ~fault_rate:cfg.fault_rate ~pcpus:cfg.pcpus
      ()
  in
  let tasks = Array.map (Smp.register_hw_task smp) cfg.tasks in
  if cfg.check then Invariant.attach_smp smp;
  let vstat = tally () in
  (* The victim is always created first and pinned to pCPU 0 so its
     vIRQ-turnaround percentiles stay comparable across populations
     and pcpus counts. *)
  let victim_pd =
    (Smp.create_vm smp ~name:"victim" ~cpu:0
       (victim ~seed:cfg.seed ~jobs:cfg.jobs_per_vm vstat tasks)).Pd.id
  in
  let fleet = Array.init (max 0 (cfg.vms - 1)) (fun _ -> tally ()) in
  let fleet_pds =
    Array.mapi
      (fun i st ->
         let offset = if cfg.stagger then i + 1 else 0 in
         let main =
           match cfg.abi with
           | V1 -> fleet_v1 ~jobs:cfg.jobs_per_vm ~offset st tasks
           | V2 -> fleet_v2 cfg ~offset st tasks
         in
         (Smp.create_vm smp ~name:(Printf.sprintf "fleet%d" (i + 1)) main)
           .Pd.id)
      fleet
  in
  if cfg.partition = Hw_task_manager.Static then pin_static smp ~victim_pd;
  (* Generous horizon: every cell ends by guest exhaustion (all VMs
     return from main), the cap only bounds a pathological stall. *)
  Smp.run smp
    ~until:
      (Cycles.of_ms
         (500.0 +. (4.0 *. float_of_int (cfg.vms * cfg.jobs_per_vm))));
  if cfg.check then Invariant.raise_first_smp smp ~boundary:"fleet_final";
  let sim_cycles = Smp.now smp in
  let total f = Array.fold_left (fun acc st -> acc + f st) 0 fleet in
  let submitted = total (fun st -> st.sub) in
  let per_job v =
    if submitted = 0 then 0.0 else float_of_int v /. float_of_int submitted
  in
  let transitions, trans_cycles =
    abi_traffic smp ~pds:(Array.to_list fleet_pds)
  in
  let virqs, p50, p99 = turnaround smp ~pd:victim_pd in
  let manager f = Fleet.sum_kernels smp (fun k -> f (Kernel.hwtm k)) in
  let pcap f = Fleet.sum_boards smp (fun z -> f z.Zynq.pcap) in
  { config = cfg;
    jobs_submitted = submitted;
    jobs_ok = total (fun st -> st.ok);
    jobs_busy = total (fun st -> st.busy);
    jobs_denied = total (fun st -> st.denied);
    jobs_failed = total (fun st -> st.failed);
    transitions;
    transitions_per_job = per_job transitions;
    overhead_us_per_job = Cycles.to_us (int_of_float (per_job trans_cycles));
    hypercalls = Smp.hypercalls smp;
    ring = ring_totals smp;
    requests = manager Hw_task_manager.requests;
    reclaims = manager Hw_task_manager.reclaims;
    reconfigs = manager Hw_task_manager.reconfigs;
    recoveries = manager Hw_task_manager.recoveries;
    pcap_transfers = pcap Pcap.transfers;
    pcap_failures = pcap Pcap.failures;
    victim_jobs = vstat.sub;
    victim_ok = vstat.ok;
    victim_dropped = vstat.failed;
    victim_virqs = virqs;
    victim_p50_us = p50;
    victim_p99_us = p99;
    prrs = Fleet.prr_utilisation smp ~sim_cycles;
    injected =
      Fleet.sum_boards smp (fun z -> Fault_plane.total_injected z.Zynq.faults);
    crashes = Smp.crashes smp;
    alive_after = Smp.alive_guests smp;
    sim_ms = Cycles.to_ms sim_cycles;
    sim_cycles }
