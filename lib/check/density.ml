(* E8: fleet-scale VM density sweep — hypercall ABI v1 vs v2.

   One cell boots a fresh board, creates [vms] guests and runs them to
   completion: VM 0 is the fixed victim (a µC/OS guest running real
   want_irq hardware jobs end to end, identical in every cell so its
   completion-vIRQ turnaround percentiles are comparable across modes
   and populations), and the remaining [vms - 1] fleet guests submit
   [jobs_per_vm] acquire/release pairs through the ABI under test:

   - [V1]: one [Hw_task_request] + [Hw_task_release] hypercall pair
     per job — the paper ABI, two guest→kernel transitions per job;
   - [V2]: descriptor-ring batches of [batch] jobs published with a
     single [Ring_doorbell] (plus one doorbell for the releases), so
     the per-job transition count collapses by ~[batch].

   Fleet guests are bare effect guests, not µC/OS instances: their
   per-PD "hypercall" span cells then count exactly the ABI traffic,
   which is what the v1-vs-v2 transition comparison reports. Every
   measurement is taken from the observability plane (which never
   advances the simulated clock) or from kernel totals, so a cell is
   deterministic in its config alone. *)

type mode = V1 | V2

let mode_name = function V1 -> "v1" | V2 -> "v2"

let mode_of_string = function
  | "v1" -> Ok V1
  | "v2" -> Ok V2
  | s -> Error (Printf.sprintf "expected v1 or v2, got %S" s)

type config = {
  seed : int;
  vms : int;
  mode : mode;
  jobs_per_vm : int;
  batch : int;          (* request descriptors per doorbell (v2) *)
  cvirq_budget : int;
  fault_rate : float;
  check : bool;         (* invariant sweeps at kernel boundaries *)
  pcpus : int;          (* simulated pCPUs; > 1 runs an Smp complex *)
  ring_admission : [ `Fifo | `Deadline ];
}

let ring_entries = 32
let quantum_ms = 2.0
let fault_seed = 7

let default_config =
  { seed = 42; vms = 8; mode = V2; jobs_per_vm = 16; batch = 8;
    cvirq_budget = 8; fault_rate = 0.0; check = false; pcpus = 1;
    ring_admission = `Fifo }

type report = {
  mode : mode;
  vms : int;
  pcpus : int;
  jobs_per_vm : int;
  batch : int;
  jobs_submitted : int;    (* fleet request descriptors/hypercalls *)
  jobs_ok : int;           (* fleet success + reconfig outcomes *)
  jobs_busy : int;
  jobs_failed : int;
  transitions : int;       (* fleet guest→kernel hypercall entries *)
  transitions_per_job : float;
  overhead_us_per_job : float;
      (* fleet cycles inside the hypercall path, per submitted job *)
  hypercalls : int;        (* whole-board total, victim included *)
  ring : Kernel.ring_stats;
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
  victim_virqs : int;      (* completion-vIRQ turnaround samples *)
  victim_p50_us : float;
  victim_p99_us : float;
  prrs : Fleet.prr_util list;
  injected : int;
  crashes : int;
  alive_after : int;
  sim_ms : float;
  sim_cycles : int;
}

let density_task_set =
  [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]

(* {2 Guests}

   The victim and the ABI v1 fleet guest are {!Fleet}'s. Both fleet
   ABIs retry [Hw_busy] {!Fleet.busy_retries} times: under v1 every
   retry is a fresh hypercall; under v2 retries ride the next doorbell
   together with the previous round's releases, which is the
   transition saving the sweep quantifies. *)

(* ABI v2 fleet guest: the same job stream batched through the ring.
   Each round publishes the batch's outstanding requests — and the
   releases won in the previous round — with a single doorbell; busy
   jobs stay pending for the next round. Release descriptors carry
   [tag + release_tag_bias] so their completions can't be mistaken
   for request outcomes. *)
let release_tag_bias = 0x1000

let fleet_v2 (cfg : config) (st : Fleet.tally) tasks genv =
  let p = Port.paravirt genv in
  match
    Ring_api.setup p ~entries:ring_entries
      ~cvirq_budget:cfg.cvirq_budget ()
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
            tasks.((!submitted + i) mod Array.length tasks))
      in
      st.sub <- st.sub + n;
      let pending = ref (List.init n (fun i -> i + 1)) in
      let round = ref 0 in
      while !pending <> [] && !round <= Fleet.busy_retries do
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

(* {2 One cell} *)

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.vms < 1 then invalid_arg "Density.run: need at least one VM";
  if cfg.pcpus < 1 then invalid_arg "Density.run: need at least one pCPU";
  (* pCPU 0 carries the victim plus its round-robin share of the
     fleet; each node has its own slot table. *)
  if 1 + (((cfg.vms - 1) + cfg.pcpus - 1) / cfg.pcpus)
     > Address_map.guest_slot_count
  then invalid_arg "Density.run: vms exceeds the guest slot count";
  if cfg.jobs_per_vm < 1 then invalid_arg "Density.run: need at least one job";
  if cfg.batch < 1 then invalid_arg "Density.run: need a positive batch";
  let smp =
    Fleet.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms quantum_ms;
          ring_admission = cfg.ring_admission }
      ~observe:true ~fault_seed ~fault_rate:cfg.fault_rate
      ~pcpus:cfg.pcpus ()
  in
  let tasks = Array.map (Smp.register_hw_task smp) density_task_set in
  if cfg.check then Invariant.attach_smp smp;
  let vstat = Fleet.tally () in
  (* The victim is always created first and pinned to pCPU 0 so its
     vIRQ-turnaround percentiles stay comparable across populations
     and pcpus counts. *)
  let victim_pd =
    (Smp.create_vm smp ~name:"victim" ~cpu:0
       (Fleet.victim ~seed:cfg.seed ~jobs:cfg.jobs_per_vm vstat tasks)).Pd.id
  in
  let fleet = Array.init (max 0 (cfg.vms - 1)) (fun _ -> Fleet.tally ()) in
  let fleet_pds =
    Array.mapi
      (fun i st ->
         let name = Printf.sprintf "d%d-%s" (i + 1) (mode_name cfg.mode) in
         let main =
           match cfg.mode with
           | V1 -> Fleet.fleet_v1 ~jobs:cfg.jobs_per_vm ~offset:0 st tasks
           | V2 -> fleet_v2 cfg st tasks
         in
         (Smp.create_vm smp ~name main).Pd.id)
      fleet
  in
  (* Generous horizon: every cell ends by guest exhaustion (all VMs
     return from main), the cap only bounds a pathological stall. *)
  let cap =
    Cycles.of_ms (500.0 +. (4.0 *. float_of_int (cfg.vms * cfg.jobs_per_vm)))
  in
  Smp.run smp ~until:cap;
  if cfg.check then Invariant.raise_first_smp smp ~boundary:"density_final";
  let sim_cycles = Smp.now smp in
  let fleet_ids = Array.to_list fleet_pds in
  (* Fleet guests issue nothing but ABI traffic, so their per-PD
     hypercall cells are exactly the guest→kernel transition count the
     v1/v2 comparison is about. PD ids are complex-global, so summing
     over every node's registry double-counts nothing. *)
  let transitions, trans_cycles =
    List.fold_left
      (fun acc cpu ->
         List.fold_left
           (fun (n, cyc) (c : Obs.cell) ->
              if
                c.Obs.c_component = "hypercall"
                && List.mem c.Obs.c_key fleet_ids
              then (n + c.Obs.c_calls, cyc + c.Obs.c_cycles)
              else (n, cyc))
           acc (Obs.snapshot (Smp.zynq smp cpu).Zynq.obs).Obs.s_cells)
      (0, 0)
      (List.init cfg.pcpus Fun.id)
  in
  let total = Fleet.sum fleet in
  let per_job v =
    if total.sub = 0 then 0.0
    else float_of_int v /. float_of_int total.sub
  in
  let vt = Fleet.victim_turnaround smp ~pd:victim_pd in
  let ring =
    let sum f = Fleet.sum_kernels smp (fun k -> f (Kernel.ring_stats k)) in
    { Kernel.rs_enqueued = sum (fun r -> r.Kernel.rs_enqueued);
      rs_completed = sum (fun r -> r.Kernel.rs_completed);
      rs_reclaimed = sum (fun r -> r.Kernel.rs_reclaimed);
      rs_doorbells = sum (fun r -> r.Kernel.rs_doorbells);
      rs_empty_doorbells = sum (fun r -> r.Kernel.rs_empty_doorbells);
      rs_virqs = sum (fun r -> r.Kernel.rs_virqs);
      rs_max_batch =
        List.fold_left max 0
          (List.init cfg.pcpus (fun cpu ->
               (Kernel.ring_stats (Smp.kernel smp cpu)).Kernel.rs_max_batch));
      rs_asid_steals = sum (fun r -> r.Kernel.rs_asid_steals) }
  in
  { mode = cfg.mode;
    vms = cfg.vms;
    pcpus = cfg.pcpus;
    jobs_per_vm = cfg.jobs_per_vm;
    batch = cfg.batch;
    jobs_submitted = total.sub;
    jobs_ok = total.ok;
    jobs_busy = total.busy;
    jobs_failed = total.failed;
    transitions;
    transitions_per_job = per_job transitions;
    overhead_us_per_job = Cycles.to_us (int_of_float (per_job trans_cycles));
    hypercalls = Smp.hypercalls smp;
    ring;
    victim_jobs = vstat.sub;
    victim_ok = vstat.ok;
    victim_dropped = vstat.failed;
    victim_virqs = vt.Fleet.virqs;
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

let default_populations = [ 8; 32; 64; 128; 256 ]

let bench_matrix ?(seed = default_config.seed)
    ?(populations = default_populations)
    ?(jobs = default_config.jobs_per_vm) ?(batch = default_config.batch)
    ?(cvirq_budget = default_config.cvirq_budget)
    ?(fault_rate = default_config.fault_rate) ?(check = false)
    ?(pcpus = default_config.pcpus)
    ?(ring_admission = default_config.ring_admission) () =
  List.concat_map
    (fun vms ->
       List.map
         (fun mode ->
            ( (if pcpus = 1 then Printf.sprintf "%s/%d" (mode_name mode) vms
               else Printf.sprintf "%s/%d/p%d" (mode_name mode) vms pcpus),
              { seed; vms; mode; jobs_per_vm = jobs; batch; cvirq_budget;
                fault_rate; check; pcpus; ring_admission } ))
         [ V1; V2 ])
    populations

let report_json r =
  let open Json_out in
  let ring = r.ring in
  Line
    (Obj
       [ ("mode", Str (mode_name r.mode));
         ("vms", Int r.vms);
         ("pcpus", Int r.pcpus);
         ("jobs_per_vm", Int r.jobs_per_vm);
         ("batch", Int r.batch);
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
