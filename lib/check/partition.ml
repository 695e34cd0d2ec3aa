(* E10: static vs dynamic PRR partitioning under a heterogeneous
   catalog, over {!Fleet_cell}: ABI v1 fleet guests, fleet VM [i]
   starting its catalog walk at kind [i + 1] so a cell exercises
   cross-kind reconfiguration churn.

   The [mode] axis is {!Hw_task_manager.partition}: the paper's DPR
   time-sharing ([Dynamic]) against the Jailhouse-style baseline
   ([Static]), where a VM left without a pinned PRR is denied
   everything. The victim owns PRR 0 (1300 units, hosts every catalog
   kind), so a victim drop can only come from interference.

   The [chaos] axis turns the PL fault plane on (corrupt/aborted PCAP
   downloads, exec faults, hwMMU noise): in static mode a fleet fault
   can only burn the faulting client's own region, so the victim's
   tail should hold, while dynamic mode exposes the victim to reclaim
   interference and fault-triggered reconfiguration queueing. *)

let mode_name = function
  | Hw_task_manager.Dynamic -> "dynamic"
  | Hw_task_manager.Static -> "static"

let chaos_fault_rate = 0.25

(* The heterogeneous catalog under study: bitstreams from ~87 KB
   (SCR-23) to ~460 KB (SFFT-1024), DMA-bound (scrambler) through
   strongly compute-bound (matmul), small regions (QAM, SCR, DIG fit
   the 200-unit PRRs) and big-region-only cores (SFFT, MM-16). *)
let partition_task_set =
  [| Task_kind.Qam 16; Task_kind.Fft 256; Task_kind.Scramble 23;
     Task_kind.Digest 64; Task_kind.Fft_stream 1024; Task_kind.Matmul 16 |]

let default_config =
  { Fleet_cell.seed = 42; vms = 5; jobs_per_vm = 24; abi = V1; batch = 8;
    partition = Hw_task_manager.Dynamic; fault_rate = 0.0;
    tasks = partition_task_set; stagger = true; check = false; pcpus = 1 }

let bench_matrix (base : Fleet_cell.config) =
  List.concat_map
    (fun partition ->
       List.map
         (fun chaos ->
            ( Printf.sprintf "%s/%s%s" (mode_name partition)
                (if chaos then "chaos" else "quiet")
                (if base.pcpus = 1 then ""
                 else Printf.sprintf "/p%d" base.pcpus),
              { base with
                partition;
                fault_rate = (if chaos then chaos_fault_rate else 0.0) } ))
         [ false; true ])
    [ Hw_task_manager.Dynamic; Hw_task_manager.Static ]

let report_json (r : Fleet_cell.report) =
  let open Json_out in
  let c = r.config in
  Line
    (Obj
       [ ("mode", Str (mode_name c.partition));
         ("chaos", Bool (c.fault_rate > 0.0));
         ("vms", Int c.vms);
         ("pcpus", Int c.pcpus);
         ("jobs_per_vm", Int c.jobs_per_vm);
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
