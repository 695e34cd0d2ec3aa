(* E10: static vs dynamic PRR partitioning under a heterogeneous
   catalog.

   One cell boots a fresh board, registers the heterogeneous task set
   (streaming FFT, scrambler, digest, matmul alongside the classic
   QAM/FFT cores) and runs a matched population: VM 0 is the fixed
   µC/OS victim (real want_irq hardware jobs, identical in every cell
   so its completion-vIRQ turnaround percentiles compare across
   modes), and the fleet guests hammer acquire/release pairs over the
   whole catalog.

   The [mode] axis is {!Hw_task_manager.partition}:

   - [Dynamic]: the paper's DPR time-sharing — any client may be
     allocated any suitable PRR, reclaim and reconfiguration on
     demand;
   - [Static]: the Jailhouse-style baseline — each node's PRRs are
     pinned round-robin across that node's VMs at boot (victim first,
     so it owns PRR 0, the big region that hosts every catalog kind)
     and a request whose suitable PRRs are all foreign fails fast
     with [Hw_denied]; a VM left without a pin is denied everything.

   The [chaos] axis turns the PL fault plane on (corrupt/aborted PCAP
   downloads, exec faults, hwMMU noise), measuring isolation under
   faults: in static mode a fleet fault can only burn the faulting
   client's own region, so the victim's tail should hold, while
   dynamic mode exposes the victim to reclaim interference and
   fault-triggered reconfiguration queueing.

   Every measurement comes from the observability plane (which never
   advances the simulated clock) or from kernel/manager totals, so a
   cell is deterministic in its config alone. *)

let mode_name = function
  | Hw_task_manager.Dynamic -> "dynamic"
  | Hw_task_manager.Static -> "static"

let mode_of_string = function
  | "dynamic" -> Ok Hw_task_manager.Dynamic
  | "static" -> Ok Hw_task_manager.Static
  | s -> Error (Printf.sprintf "expected dynamic or static, got %S" s)

type config = {
  seed : int;
  vms : int;
  mode : Hw_task_manager.partition;
  chaos : bool;
  jobs_per_vm : int;
  check : bool;
  pcpus : int;
}

let quantum_ms = 2.0
let chaos_fault_rate = 0.25
let fault_seed = 7

let default_config =
  { seed = 42; vms = 5; mode = Hw_task_manager.Dynamic; chaos = false;
    jobs_per_vm = 24; check = false; pcpus = 1 }

(* The heterogeneous catalog under study: bitstreams from ~87 KB
   (SCR-23) to ~460 KB (SFFT-1024), DMA-bound (scrambler) through
   strongly compute-bound (matmul), small regions (QAM, SCR, DIG fit
   the 200-unit PRRs) and big-region-only cores (SFFT, MM-16). *)
let partition_task_set =
  [| Task_kind.Qam 16; Task_kind.Fft 256; Task_kind.Scramble 23;
     Task_kind.Digest 64; Task_kind.Fft_stream 1024; Task_kind.Matmul 16 |]

type report = {
  mode : Hw_task_manager.partition;
  chaos : bool;
  vms : int;
  pcpus : int;
  jobs_per_vm : int;
  jobs_submitted : int;    (* fleet request hypercalls *)
  jobs_ok : int;
  jobs_busy : int;
  jobs_denied : int;       (* static fail-fast refusals *)
  jobs_failed : int;
  requests : int;          (* manager allocation attempts, all clients *)
  reclaims : int;
  reconfigs : int;
  recoveries : int;
  pcap_transfers : int;
  pcap_failures : int;
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
  victim_p50_us : float;
  victim_p99_us : float;
  prrs : Fleet.prr_util list;
  injected : int;
  crashes : int;
  alive_after : int;
  sim_ms : float;
  sim_cycles : int;
}

(* {2 Guests}

   The victim and the fleet are {!Fleet}'s: fleet VM [i] starts its
   walk over the catalog at offset [i], so the cell exercises
   cross-kind reconfiguration churn in dynamic mode. In static mode
   the victim owns PRR 0 (1300 units — hosts every catalog kind), so a
   victim drop can only come from interference, never from an
   impossible placement. *)

(* {2 One cell} *)

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.vms < 1 then invalid_arg "Partition.run: need at least one VM";
  if cfg.pcpus < 1 then invalid_arg "Partition.run: need at least one pCPU";
  if 1 + (((cfg.vms - 1) + cfg.pcpus - 1) / cfg.pcpus)
     > Address_map.guest_slot_count
  then invalid_arg "Partition.run: vms exceeds the guest slot count";
  if cfg.jobs_per_vm < 1 then
    invalid_arg "Partition.run: need at least one job";
  let fault_rate = if cfg.chaos then chaos_fault_rate else 0.0 in
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms quantum_ms;
          partition = cfg.mode }
      ~observe:true ~fault_seed ~fault_rate ~pcpus:cfg.pcpus ()
  in
  let tasks = Array.map (Smp.register_hw_task smp) partition_task_set in
  if cfg.check then Invariant.attach_smp smp;
  let vstat = Fleet.tally () in
  let victim_pd =
    (Smp.create_vm smp ~name:"victim" ~cpu:0
       (Fleet.victim ~seed:cfg.seed ~jobs:cfg.jobs_per_vm vstat tasks)).Pd.id
  in
  let fleet = Array.init (max 0 (cfg.vms - 1)) (fun _ -> Fleet.tally ()) in
  Array.iteri
    (fun i st ->
       let name = Printf.sprintf "p%d-%s" (i + 1) (mode_name cfg.mode) in
       ignore
         (Smp.create_vm smp ~name
            (Fleet.fleet_v1 ~jobs:cfg.jobs_per_vm ~offset:(i + 1) st tasks)))
    fleet;
  (* Static boot-time layout: each node's PRRs are pinned round-robin
     over that node's own VMs (each pCPU cluster has its own PL), with
     the victim first on pCPU 0. More VMs than PRRs leaves the tail
     VMs unpinned — their requests are all denied, which is exactly
     the static baseline's inflexibility the sweep quantifies. *)
  if cfg.mode = Hw_task_manager.Static then
    for cpu = 0 to cfg.pcpus - 1 do
      let owners =
        List.filter
          (fun id -> Smp.vm_cpu smp id = Some cpu)
          (victim_pd
           :: List.sort compare
                (List.filter (( <> ) victim_pd)
                   (List.map fst (Smp.directory smp))))
      in
      if owners <> [] then begin
        let hwtm = Kernel.hwtm (Smp.kernel smp cpu) in
        let prrc = (Smp.zynq smp cpu).Zynq.prrc in
        for i = 0 to Prr_controller.prr_count prrc - 1 do
          match
            Hw_task_manager.pin_prr hwtm ~prr_id:i
              ~client_id:(List.nth owners (i mod List.length owners))
          with
          | Ok () -> ()
          | Error e -> invalid_arg ("Partition.run: " ^ e)
        done
      end
    done;
  let cap =
    Cycles.of_ms (500.0 +. (4.0 *. float_of_int (cfg.vms * cfg.jobs_per_vm)))
  in
  Smp.run smp ~until:cap;
  if cfg.check then Invariant.raise_first_smp smp ~boundary:"partition_final";
  let sim_cycles = Smp.now smp in
  let vt = Fleet.victim_turnaround smp ~pd:victim_pd in
  let total = Fleet.sum fleet in
  let manager f = Fleet.sum_kernels smp (fun k -> f (Kernel.hwtm k)) in
  let pcap f = Fleet.sum_boards smp (fun z -> f z.Zynq.pcap) in
  { mode = cfg.mode;
    chaos = cfg.chaos;
    vms = cfg.vms;
    pcpus = cfg.pcpus;
    jobs_per_vm = cfg.jobs_per_vm;
    jobs_submitted = total.sub;
    jobs_ok = total.ok;
    jobs_busy = total.busy;
    jobs_denied = total.denied;
    jobs_failed = total.failed;
    requests = manager Hw_task_manager.requests;
    reclaims = manager Hw_task_manager.reclaims;
    reconfigs = manager Hw_task_manager.reconfigs;
    recoveries = manager Hw_task_manager.recoveries;
    pcap_transfers = pcap Pcap.transfers;
    pcap_failures = pcap Pcap.failures;
    victim_jobs = vstat.sub;
    victim_ok = vstat.ok;
    victim_dropped = vstat.failed;
    victim_p50_us = vt.Fleet.p50_us;
    victim_p99_us = vt.Fleet.p99_us;
    prrs = Fleet.prr_utilisation smp ~sim_cycles;
    injected =
      Fleet.sum_boards smp (fun z -> Fault_plane.total_injected z.Zynq.faults);
    crashes = Smp.crashes smp;
    alive_after = Smp.alive_guests smp;
    sim_ms = Cycles.to_ms sim_cycles;
    sim_cycles }

(* {2 The bench matrix} *)

let bench_matrix ?(seed = default_config.seed)
    ?(jobs = default_config.jobs_per_vm) ?(check = false)
    ?(pcpus = default_config.pcpus) () =
  List.concat_map
    (fun mode ->
       List.map
         (fun chaos ->
            ( Printf.sprintf "%s/%s%s" (mode_name mode)
                (if chaos then "chaos" else "quiet")
                (if pcpus = 1 then "" else Printf.sprintf "/p%d" pcpus),
              { default_config with
                seed; mode; chaos; jobs_per_vm = jobs; check; pcpus } ))
         [ false; true ])
    [ Hw_task_manager.Dynamic; Hw_task_manager.Static ]

let report_json r =
  let open Json_out in
  Line
    (Obj
       [ ("mode", Str (mode_name r.mode));
         ("chaos", Bool r.chaos);
         ("vms", Int r.vms);
         ("pcpus", Int r.pcpus);
         ("jobs_per_vm", Int r.jobs_per_vm);
         ("jobs_submitted", Int r.jobs_submitted);
         ("jobs_ok", Int r.jobs_ok);
         ("jobs_busy", Int r.jobs_busy);
         ("jobs_denied", Int r.jobs_denied);
         ("jobs_failed", Int r.jobs_failed);
         ( "manager",
           Obj
             [ ("requests", Int r.requests);
               ("reclaims", Int r.reclaims);
               ("reconfigs", Int r.reconfigs);
               ("recoveries", Int r.recoveries) ] );
         ( "pcap",
           Obj
             [ ("transfers", Int r.pcap_transfers);
               ("failures", Int r.pcap_failures) ] );
         ( "victim",
           Obj
             [ ("jobs", Int r.victim_jobs);
               ("ok", Int r.victim_ok);
               ("dropped", Int r.victim_dropped);
               ("p50_us", Float r.victim_p50_us);
               ("p99_us", Float r.victim_p99_us) ] );
         ("prr_utilisation", Fleet.prr_util_json ~pinned:true r.prrs);
         ("injected", Int r.injected);
         ("crashes", Int r.crashes);
         ("alive_after", Int r.alive_after);
         ("sim_ms", Float r.sim_ms);
         ("sim_cycles", Int r.sim_cycles) ])
