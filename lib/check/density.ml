(* E8: fleet-scale VM density sweep — hypercall ABI v1 vs v2.

   Every cell is a {!Fleet_cell}: the fixed µC/OS victim beside
   [vms - 1] fleet guests under the ABI under test, dynamic PRR
   sharing, every guest starting its catalog walk at the same kind.
   The sweep quantifies, per (ABI × population) cell, the per-job
   guest→kernel transition count and hypercall-path overhead, the
   ring batching depth, PRR utilisation and the victim's
   vIRQ-turnaround tail under density interference. *)

let mode_name = function Fleet_cell.V1 -> "v1" | Fleet_cell.V2 -> "v2"

let default_config =
  { Fleet_cell.seed = 42; vms = 8; jobs_per_vm = 16; abi = V2; batch = 8;
    partition = Hw_task_manager.Dynamic; fault_rate = 0.0;
    tasks = [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |];
    stagger = false; check = false; pcpus = 1 }

let default_populations = [ 8; 32; 64; 128; 256 ]

let bench_matrix ~populations (base : Fleet_cell.config) =
  List.concat_map
    (fun vms ->
       List.map
         (fun abi ->
            ( Printf.sprintf "%s/%d%s" (mode_name abi) vms
                (if base.pcpus = 1 then ""
                 else Printf.sprintf "/p%d" base.pcpus),
              { base with vms; abi } ))
         [ Fleet_cell.V1; Fleet_cell.V2 ])
    populations

let report_json (r : Fleet_cell.report) =
  let open Json_out in
  let c = r.config and ring = r.ring in
  Line
    (Obj
       [ ("mode", Str (mode_name c.abi));
         ("vms", Int c.vms);
         ("pcpus", Int c.pcpus);
         ("jobs_per_vm", Int c.jobs_per_vm);
         ("batch", Int c.batch);
         ("jobs_submitted", Int r.jobs_submitted);
         ("jobs_ok", Int r.jobs_ok);
         ("jobs_busy", Int r.jobs_busy);
         ("jobs_failed", Int r.jobs_failed);
         ("transitions", Int r.transitions);
         ("transitions_per_job", Float r.transitions_per_job);
         ("overhead_us_per_job", Float r.overhead_us_per_job);
         ("hypercalls", Int r.hypercalls);
         ( "ring",
           Obj
             [ ("enqueued", Int ring.Kernel.rs_enqueued);
               ("completed", Int ring.Kernel.rs_completed);
               ("reclaimed", Int ring.Kernel.rs_reclaimed);
               ("doorbells", Int ring.Kernel.rs_doorbells);
               ("empty_doorbells", Int ring.Kernel.rs_empty_doorbells);
               ("virqs", Int ring.Kernel.rs_virqs);
               ("max_batch", Int ring.Kernel.rs_max_batch);
               ("asid_steals", Int ring.Kernel.rs_asid_steals) ] );
         ( "victim",
           Obj
             [ ("jobs", Int r.victim_jobs);
               ("ok", Int r.victim_ok);
               ("dropped", Int r.victim_dropped);
               ("virqs", Int r.victim_virqs);
               ("p50_us", Float r.victim_p50_us);
               ("p99_us", Float r.victim_p99_us) ] );
         ("prr_utilisation", Fleet.prr_util_json ~pinned:false r.prrs);
         ("injected", Int r.injected);
         ("crashes", Int r.crashes);
         ("alive_after", Int r.alive_after);
         ("sim_ms", Float r.sim_ms);
         ("sim_cycles", Int r.sim_cycles) ])
