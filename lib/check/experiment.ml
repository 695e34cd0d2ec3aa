type claim = { claim : string; holds : bool }

type result = { json : Json_out.t; claims : claim list }

type args = {
  value : 'a. 'a Cli_args.spec -> unit -> 'a;
  flag : Cli_args.flag -> unit -> bool;
}

type t = {
  name : string;
  title : string;
  define : args -> unit -> result;
}

type command = {
  all : bool;
  runs : (t * (unit -> result)) list;
  entries : Cli_args.entry list;
  assert_ : bool;
  help : bool;
}

let result ?(claims = []) json = { json; claims }

let all_hold r = List.for_all (fun c -> c.holds) r.claims

let pp_claims ppf r =
  List.iter
    (fun c ->
       Format.fprintf ppf "claim %s: %s@." (if c.holds then "ok" else "FAIL")
         c.claim)
    r.claims

let claims_json r =
  Json_out.List
    (List.map
       (fun c ->
          Json_out.Obj [ ("claim", Str c.claim); ("holds", Bool c.holds) ])
       r.claims)

(* --- shared JSON pieces --- *)

open Json_out

let metrics_field (s : Obs.snapshot) =
  if s.Obs.s_enabled then [ ("metrics", Obs.snapshot_to_json s) ] else []

let overheads_fields (o : Scenario.overheads) =
  [ ("entry_us", Float o.Scenario.entry_us);
    ("exit_us", Float o.Scenario.exit_us);
    ("plirq_us", Float o.Scenario.plirq_us);
    ("exec_us", Float o.Scenario.exec_us);
    ("total_us", Float o.Scenario.total_us);
    ("samples", Int o.Scenario.samples);
    ("reconfigs", Int o.Scenario.reconfigs);
    ("reclaims", Int o.Scenario.reclaims);
    ("jobs", Int o.Scenario.jobs);
    ("hwmmu_violations", Int o.Scenario.hwmmu_violations);
    ("sim_ms", Float o.Scenario.sim_ms);
    ("sim_cycles", Int o.Scenario.sim_cycles) ]
  @ metrics_field o.Scenario.metrics

let floats l = List (List.map (fun f -> Float f) l)

let tagged_runs f reports =
  List
    (List.map (fun (tag, r) -> Obj [ ("tag", Str tag); ("report", f r) ])
       reports)

(* Tagged cells are independent worlds: sweep them on domains. *)
let run_cells run cells =
  Parallel_sweep.map (fun (tag, c) -> (tag, run c)) cells

let every what f l = { claim = what; holds = List.for_all f l }
let all_cells what f reports = every what (fun (_, r) -> f r) reports

(* --- shared flag groups --- *)

(* The Table III scenario knobs. [base] supplies the defaults; pCPU
   count and quantum are the caller's (the ablations fix their own). *)
let scenario_args (a : args) (base : Scenario.config) =
  let requests =
    a.value
      { Cli_args.requests with default = base.Scenario.requests_per_guest }
  in
  let warmup =
    a.value { Cli_args.warmup with default = base.Scenario.warmup_requests }
  in
  let seed = a.value Cli_args.seed in
  let observe = a.flag Cli_args.observe in
  fun () ->
    { base with
      Scenario.requests_per_guest = requests ();
      warmup_requests = warmup ();
      seed = seed ();
      observe = observe () }

let bench_base =
  { Scenario.default_config with
    Scenario.requests_per_guest = 40;
    warmup_requests = 8;
    job_fraction = 2 }

let smp_scenario_args a base =
  let cfg = scenario_args a base in
  let quantum = a.value Cli_args.quantum in
  let pcpus = a.value Cli_args.pcpus in
  fun () -> { (cfg ()) with Scenario.quantum_ms = quantum (); pcpus = pcpus () }

let config_label i = if i = 0 then "native" else Printf.sprintf "%dos" i

(* One Table III cell is one run: [guests] VMs under a config, 0 for
   the native baseline. table3, fig9 and scenario share one cache of
   cells; the missing ones of a request run as one parallel sweep. *)
let cells = Hashtbl.create 8

let table3_cells config guests =
  let keys = List.map (fun g -> (config, g)) guests in
  let missing = List.filter (fun k -> not (Hashtbl.mem cells k)) keys in
  List.iter2 (Hashtbl.replace cells) missing
    (Parallel_sweep.map
       (fun (config, g) ->
          if g = 0 then Scenario.run_native ~config ()
          else Scenario.run_virtualized ~config ~guests:g ())
       missing);
  List.map (Hashtbl.find cells) keys

(* Native followed by 1..--guests VMs. *)
let table3_sweep (a : args) =
  let cfg = smp_scenario_args a bench_base in
  let guests = a.value Cli_args.guests in
  fun () -> table3_cells (cfg ()) (List.init (guests () + 1) Fun.id)

(* --- E1-E4: the paper's artifacts --- *)

let table3 =
  { name = "table3";
    title = "E1: Table III";
    define =
      (fun a ->
         let sweep = table3_sweep a in
         fun () ->
           let s = sweep () in
           result
             (Obj
                [ ( "runs",
                    List
                      (List.mapi
                         (fun i o ->
                            Obj
                              (("config", Str (config_label i))
                               :: overheads_fields o))
                         s) );
                  ( "paper",
                    List
                      (List.map
                         (fun (r : Paper_data.row) ->
                            Obj
                              [ ("metric", Str r.Paper_data.metric);
                                ("native", Float r.Paper_data.native);
                                ( "guests",
                                  Line
                                    (floats
                                       (Array.to_list r.Paper_data.guests)) )
                              ])
                         Paper_data.table3) ) ])) }

let fig9 =
  { name = "fig9";
    title = "E2: Figure 9";
    define =
      (fun a ->
         let sweep = table3_sweep a in
         fun () ->
           let s = sweep () in
           result
             (Obj
                [ ( "ratios",
                    List
                      (List.map
                         (fun (m, rs) ->
                            Obj
                              [ ("metric", Str m);
                                ("measured", floats rs);
                                ( "paper",
                                  floats
                                    (Option.value ~default:[]
                                       (List.assoc_opt m Tables.paper_fig9)) )
                              ])
                         (Tables.fig9_rows s)) ) ])) }

let opt_int = function Some n -> Int n | None -> Null

let report =
  { name = "report";
    title = "E3: complexity report";
    define =
      (fun _ () ->
           let r = Complexity.measure () in
           result
             (Obj
                [ ("kernel_loc", opt_int r.Complexity.kernel_loc);
                  ("guest_loc", opt_int r.Complexity.guest_loc);
                  ("patch_loc", opt_int r.Complexity.patch_loc);
                  ("hypercalls", Int r.Complexity.hypercalls);
                  ("time_slice_ms", Float r.Complexity.time_slice_ms);
                  ("substrate_loc", opt_int r.Complexity.substrate_loc);
                  ("glue_loc", opt_int r.Complexity.glue_loc);
                  ( "paper",
                    Line
                      (Obj
                         [ ("kernel_loc", Int Paper_data.kernel_loc);
                           ("patch_loc", Int Paper_data.patch_loc);
                           ("hypercalls", Int Paper_data.hypercalls);
                           ("time_slice_ms", Float Paper_data.time_slice_ms);
                           ("kernel_elf_kb", Int Paper_data.kernel_elf_kb);
                           ("footprint_mb", Int Paper_data.footprint_mb) ]) )
                ])) }

let reconfig =
  { name = "reconfig";
    title = "E4: reconfiguration latency";
    define =
      (fun _ () ->
         let rows = Ablations.reconfig_table () in
         result
           (Obj
              [ ( "rows",
                  List
                    (List.map
                       (fun r ->
                          Obj
                            [ ("task", Str r.Ablations.task);
                              ("bitstream_kb", Int r.Ablations.bitstream_kb);
                              ("reconfig_ms", Float r.Ablations.reconfig_ms) ])
                       rows) ) ])) }

(* --- A1-A5: the design-choice ablations --- *)

let axi =
  { name = "axi";
    title = "A1: AXI HP vs ACP";
    define =
      (fun _ () ->
         let r = Ablations.axi_ablation () in
         result
           (Obj
              [ ("payload_kb", Int r.Ablations.payload_kb);
                ("hp_dma_us", Float r.Ablations.hp_dma_us);
                ("acp_dma_us", Float r.Ablations.acp_dma_us);
                ("cpu_after_hp_us", Float r.Ablations.cpu_after_hp_us);
                ("cpu_after_acp_us", Float r.Ablations.cpu_after_acp_us) ])) }

let vfp =
  { name = "vfp";
    title = "A2: VFP switching policy";
    define =
      (fun _ () ->
         let r = Ablations.vfp_ablation () in
         result
           (Obj
              [ ("lazy_switch_us", Float r.Ablations.lazy_switch_us);
                ("active_switch_us", Float r.Ablations.active_switch_us);
                ("lazy_vfp_switches", Int r.Ablations.lazy_vfp_switches);
                ( "active_vfp_switches",
                  Int r.Ablations.active_vfp_switches ) ])) }

let trapvshyper =
  { name = "trapvshyper";
    title = "A3: trap vs hypercall";
    define =
      (fun _ () ->
         let r = Ablations.trap_vs_hypercall () in
         result
           (Obj
              [ ("hypercall_us", Float r.Ablations.hypercall_us);
                ("trap_us", Float r.Ablations.trap_us) ])) }

let ablation_base =
  { bench_base with Scenario.requests_per_guest = 25; warmup_requests = 5 }

let asid =
  { name = "asid";
    title = "A4: ASID vs TLB flush";
    define =
      (fun a ->
         let cfg = scenario_args a ablation_base in
         fun () ->
           let r = Ablations.asid_ablation ~config:(cfg ()) () in
           result
             (Obj
                [ ("asid", Obj (overheads_fields r.Ablations.asid));
                  ("flush_all", Obj (overheads_fields r.Ablations.flush_all));
                  ( "first_chunk_asid_us",
                    Float r.Ablations.first_chunk_asid_us );
                  ( "first_chunk_flush_us",
                    Float r.Ablations.first_chunk_flush_us ) ])) }

let quantum =
  { name = "quantum";
    title = "A5: quantum sweep";
    define =
      (fun a ->
         let cfg = scenario_args a ablation_base in
         fun () ->
           let rows = Ablations.quantum_sweep ~config:(cfg ()) () in
           result
             (Obj
                [ ( "runs",
                    List
                      (List.map
                         (fun (q, o) ->
                            Obj (("quantum_ms", Float q) :: overheads_fields o))
                         rows) ) ])) }

(* --- E5-E10: resilience, soak, tail latency, density, partitioning --- *)

let chaos =
  { name = "chaos";
    title = "E5: chaos (fault injection)";
    define =
      (fun a ->
         let requests = a.value { Cli_args.requests with default = 20 } in
         let seed = a.value Cli_args.seed in
         let observe = a.flag Cli_args.observe in
         let guests = a.value Cli_args.guests in
         let rate = a.value (Cli_args.some Cli_args.fault_rate) in
         let fault_seed = a.value Cli_args.fault_seed in
         fun () ->
           let config =
             { Chaos.base =
                 { Scenario.default_config with
                   Scenario.requests_per_guest = requests ();
                   seed = seed ();
                   observe = observe () };
               fault_rate = Chaos.default_config.Chaos.fault_rate;
               fault_seed = fault_seed () }
           in
           let reports =
             Chaos.sweep ~config ~max_guests:(guests ())
               ?rates:(Option.map (fun r -> [ r ]) (rate ())) ()
           in
           let faulty =
             List.filter (fun r -> r.Chaos.fault_rate > 0.0) reports
           in
           result
             ~claims:
               [ every "no guest crashed"
                   (fun r -> r.Chaos.crashes = 0) reports;
                 every "every faulty cell injected faults"
                   (fun r -> r.Chaos.injected > 0) faulty;
                 every "every faulty cell recovered"
                   (fun r -> r.Chaos.recoveries + r.Chaos.reconfig_retries > 0)
                   faulty ]
             (Obj
                [ ("fault_seed", Int config.Chaos.fault_seed);
                  ( "runs",
                    List
                      (List.map
                         (fun (r : Chaos.report) ->
                            Obj
                              ([ ("fault_rate", Float r.Chaos.fault_rate);
                                 ("guests", Int r.Chaos.guests);
                                 ("injected", Int r.Chaos.injected);
                                 ("recoveries", Int r.Chaos.recoveries);
                                 ("retries", Int r.Chaos.reconfig_retries);
                                 ("hang_resets", Int r.Chaos.hang_resets);
                                 ("quarantines", Int r.Chaos.quarantines);
                                 ("fault_kills", Int r.Chaos.fault_kills);
                                 ("jobs_ok", Int r.Chaos.jobs_ok);
                                 ("jobs_attempted", Int r.Chaos.jobs_attempted);
                                 ("busy_retries", Int r.Chaos.busy_retries);
                                 ("denied", Int r.Chaos.denied);
                                 ( "completion_rate",
                                   Float r.Chaos.completion_rate );
                                 ("crashes", Int r.Chaos.crashes);
                                 ("mgr_total_us", Float r.Chaos.mgr_total_us);
                                 ("sim_ms", Float r.Chaos.sim_ms) ]
                               @ metrics_field r.Chaos.metrics))
                         reports) ) ])) }

let shards =
  Cli_args.int ~min:1 [ "shards" ]
    "Split the soak into N independent seeded shards (run concurrently \
     up to MININOVA_DOMAINS; results are identical for any domain count)."
    1

let replay =
  Cli_args.file [ "replay" ]
    "Replay a soak reproducer file instead of generating from the seed."

(* Where a violated soak writes its shrunk reproducer. *)
let repro_file = "SOAK_repro.txt"

let arrivals =
  Cli_args.int ~min:1 [ "arrivals" ]
    "Open-loop SLO arrivals generated per guest." 60

let soak_result ~cfg ~repro ~wall outcome reports stats =
  let clean, violation =
    match outcome with
    | Soak.Clean _ -> (true, [])
    | Soak.Violated { violation; shrunk; stats = vs } ->
      ( false,
        [ ("violation", Str (Invariant.violation_to_string violation));
          ("trace_actions", Int vs.Soak.actions);
          ("shrunk_actions", Int (List.length shrunk));
          ("reproducer", Option.fold ~none:Null ~some:(fun f -> Str f) repro)
        ] )
  in
  result
    ~claims:[ { claim = "invariants held"; holds = clean } ]
    (Obj
       ([ ("ops", Int cfg.Soak.ops);
          ("seed", Int cfg.Soak.seed);
          ("pcpus", Int cfg.Soak.pcpus);
          ("check", Bool cfg.Soak.check);
          ("stats", Soak.stats_json stats);
          ( "shards",
            List
              (List.map
                 (fun (r : Soak.shard_report) ->
                    Obj
                      [ ("shard", Int r.Soak.shard);
                        ("seed", Int r.Soak.shard_cfg.Soak.seed);
                        ( "violation",
                          match r.Soak.outcome with
                          | Soak.Clean _ -> Null
                          | Soak.Violated { violation; _ } ->
                            Str (Invariant.violation_to_string violation) );
                        ( "ops_done",
                          Int
                            (Soak.stats_of_outcome r.Soak.outcome).Soak.ops_done
                        );
                        ("wall_s", Float r.Soak.wall_s) ])
                 reports) );
          ("wall_s", Float wall) ]
        @ violation))

let soak =
  { name = "soak";
    title = "E6: invariant-checked lifecycle soak";
    define =
      (fun a ->
         let d = Soak.default_config in
         let ops = a.value Cli_args.ops in
         let seed = a.value { Cli_args.seed with default = d.Soak.seed } in
         let no_check = a.flag Cli_args.no_check in
         let fault_rate =
           a.value { Cli_args.fault_rate with default = d.Soak.fault_rate }
         in
         let fault_seed =
           a.value { Cli_args.fault_seed with default = d.Soak.fault_seed }
         in
         let quantum =
           a.value { Cli_args.quantum with default = d.Soak.quantum_ms }
         in
         let pcpus = a.value Cli_args.pcpus in
         let shards = a.value shards in
         let replay = a.value replay in
         fun () ->
           match replay () with
           | Some path ->
             (* The reproducer carries its own config: report that run. *)
             let cfg, actions =
               match Soak.load_reproducer path with
               | Ok r -> r
               | Error e -> failwith ("soak: " ^ e)
             in
             let t0 = Unix.gettimeofday () in
             let outcome = Soak.replay cfg actions in
             soak_result ~cfg ~repro:None ~wall:(Unix.gettimeofday () -. t0)
               outcome [] (Soak.stats_of_outcome outcome)
           | None ->
             let cfg =
               { Soak.ops = ops (); seed = seed (); max_vms = d.Soak.max_vms;
                 check = not (no_check ()); fault_rate = fault_rate ();
                 fault_seed = fault_seed (); quantum_ms = quantum ();
                 pcpus = pcpus () }
             in
             let shards = shards () in
             let t0 = Unix.gettimeofday () in
             let s = Soak.run ~shards cfg in
             let wall = Unix.gettimeofday () -. t0 in
             let outcome, repro =
               match s.Soak.first_violated with
               | None -> (Soak.Clean s.Soak.merged_stats, None)
               | Some r ->
                 (match r.Soak.outcome with
                  | Soak.Violated { violation; shrunk; _ } ->
                    Soak.write_reproducer repro_file r.Soak.shard_cfg
                      violation ~shrunk
                  | Soak.Clean _ -> ());
                 (r.Soak.outcome, Some repro_file)
             in
             soak_result ~cfg ~repro ~wall outcome s.Soak.reports
               s.Soak.merged_stats) }

let slo =
  { name = "slo";
    title = "E7: open-loop tail latency (SLO)";
    define =
      (fun a ->
         let d = Slo.default_config in
         let seed = a.value { Cli_args.seed with default = d.Slo.seed } in
         let arrivals = a.value arrivals in
         let observe = a.flag Cli_args.observe in
         let pcpus = a.value Cli_args.pcpus in
         fun () ->
           let seed = seed () and arrivals = arrivals () in
           let reports =
             run_cells (fun config -> Slo.run ~config ())
               (Slo.bench_matrix
                  { d with
                    Slo.seed; arrivals_per_guest = arrivals;
                    observe = observe (); pcpus = pcpus () })
           in
           let cell tag = List.assoc_opt tag reports in
           let victim (r : Slo.report) =
             List.find_opt (fun v -> v.Slo.vm = 0) r.Slo.vms
           in
           let comparison =
             let ( let* ) = Option.bind in
             let* off = cell "poisson/high" in
             let* on = cell "chaos/on" in
             let* v_off = victim off in
             let* v_on = victim on in
             Some
               ( "chaos_comparison",
                 Obj
                   [ ("victim_service_p99_us_off",
                      Float v_off.Slo.service_p99_us);
                     ("victim_service_p99_us_on",
                      Float v_on.Slo.service_p99_us);
                     ("victim_sojourn_p99_us_off",
                      Float v_off.Slo.sojourn_p99_us);
                     ("victim_sojourn_p99_us_on",
                      Float v_on.Slo.sojourn_p99_us);
                     ("faults_injected", Int on.Slo.injected) ] )
           in
           let vms f (r : Slo.report) = List.for_all f r.Slo.vms in
           result
             ~claims:
               [ all_cells "no cell crashed"
                   (fun r -> r.Slo.crashes = 0) reports;
                 all_cells "every arrival served"
                   (vms (fun v -> v.Slo.served = arrivals)) reports;
                 all_cells "every VM's service p99 measured"
                   (vms (fun v -> v.Slo.service_p99_us > 0.0)) reports;
                 { claim = "the chaos cell injected faults";
                   holds =
                     (match cell "chaos/on" with
                      | Some r -> r.Slo.injected > 0
                      | None -> false) };
                 { claim = "the churn cell killed as configured";
                   holds =
                     (match cell "churn" with
                      | Some r -> r.Slo.kills = r.Slo.churn_kills
                      | None -> false) } ]
             (Obj
                ([ ("seed", Int seed);
                   ("arrivals_per_guest", Int arrivals);
                   ("runs", tagged_runs Slo.report_json reports) ]
                 @ Option.to_list comparison))) }

(* --- E8 and E10: fleet cells --- *)

let vms_spec =
  { Cli_args.names = [ "vms" ];
    docv = "LIST";
    doc = "Density populations, comma-separated (e.g. 8,64,256).";
    default = Density.default_populations;
    parse =
      (fun s ->
         let rec all acc = function
           | [] -> Ok (List.rev acc)
           | x :: xs ->
             Result.bind (Cli_args.int_in 1 max_int (String.trim x)) (fun n ->
                 all (n :: acc) xs)
         in
         all [] (String.split_on_char ',' s)) }

let jobs_spec = Cli_args.int ~min:1 [ "jobs" ] "Hardware jobs per guest."

(* The flags both fleet studies read, over the study's defaults. *)
let fleet_args (a : args) (d : Fleet_cell.config) =
  let seed = a.value { Cli_args.seed with default = d.seed } in
  let jobs = a.value (jobs_spec d.jobs_per_vm) in
  let check = a.flag Cli_args.check in
  let pcpus = a.value Cli_args.pcpus in
  fun () ->
    { d with
      seed = seed (); jobs_per_vm = jobs (); check = check ();
      pcpus = pcpus () }

let fleet_claims reports =
  [ all_cells "no cell crashed"
      (fun (r : Fleet_cell.report) -> r.crashes = 0) reports;
    all_cells "the victim kept every job"
      (fun (r : Fleet_cell.report) -> r.victim_ok = r.victim_jobs) reports;
    all_cells "every fleet job is accounted for"
      (fun (r : Fleet_cell.report) ->
         r.jobs_ok + r.jobs_busy + r.jobs_denied + r.jobs_failed
         = r.jobs_submitted)
      reports ]

let density_ratio reports vms =
  let per_job abi =
    List.find_map
      (fun (_, (r : Fleet_cell.report)) ->
         if r.config.vms = vms && r.config.abi = abi then
           Some r.transitions_per_job
         else None)
      reports
  in
  match (per_job Fleet_cell.V1, per_job Fleet_cell.V2) with
  | Some v1, Some v2 when v2 > 0.0 -> Some (vms, v1, v2, v1 /. v2)
  | _ -> None

let density =
  { name = "density";
    title = "E8: fleet density (ABI v1 vs v2)";
    define =
      (fun a ->
         let d = Density.default_config in
         let base = fleet_args a d in
         let populations = a.value vms_spec in
         let batch =
           a.value
             (Cli_args.int ~min:1 [ "batch" ]
                "ABI v2 request descriptors per doorbell." d.batch)
         in
         let fault_rate =
           a.value { Cli_args.fault_rate with default = d.fault_rate }
         in
         fun () ->
           let populations = populations () in
           let base =
             { (base ()) with
               batch = batch (); fault_rate = fault_rate () }
           in
           let cells = Density.bench_matrix ~populations base in
           let reports = run_cells Fleet_cell.run cells in
           let ratios = List.filter_map (density_ratio reports) populations in
           result
             ~claims:
               (fleet_claims reports
                @ [ all_cells "the fleet completed jobs"
                      (fun (r : Fleet_cell.report) -> r.jobs_ok > 0) reports;
                    all_cells "v2 ring totals close, v1 never touches a ring"
                      (fun (r : Fleet_cell.report) ->
                         let g = r.ring in
                         match r.config.abi with
                         | Fleet_cell.V2 ->
                           g.Kernel.rs_enqueued > 0
                           && g.Kernel.rs_enqueued
                              = g.Kernel.rs_completed + g.Kernel.rs_reclaimed
                         | Fleet_cell.V1 -> g.Kernel.rs_enqueued = 0)
                      reports ]
                @
                if base.batch < 8 || ratios = [] then []
                else
                  [ { claim =
                        "at batch >= 8, v2 cuts per-job transitions at least 4x";
                      holds =
                        List.for_all (fun (_, _, _, x) -> x >= 4.0) ratios } ])
             (Obj
                [ ("seed", Int base.seed);
                  ("jobs_per_vm", Int base.jobs_per_vm);
                  ("batch", Int base.batch);
                  ("cvirq_budget", Int Fleet_cell.cvirq_budget);
                  ("runs", tagged_runs Density.report_json reports);
                  ( "transition_ratio",
                    List
                      (List.map
                         (fun (vms, v1, v2, x) ->
                            Obj
                              [ ("vms", Int vms);
                                ("v1_per_job", Float v1);
                                ("v2_per_job", Float v2);
                                ("ratio", Float x) ])
                         ratios) ) ])) }

let partition =
  { name = "partition";
    title = "E10: static vs dynamic partitioning";
    define =
      (fun a ->
         let base = fleet_args a Partition.default_config in
         fun () ->
           let base = base () in
           let chaotic (c : Fleet_cell.config) = c.fault_rate > 0.0 in
           let reports = run_cells Fleet_cell.run (Partition.bench_matrix base) in
           (* The matrix always holds both chaos cells. *)
           let p99 m =
             (snd
                (List.find
                   (fun (_, (r : Fleet_cell.report)) ->
                      chaotic r.config && r.config.partition = m)
                   reports))
               .Fleet_cell.victim_p99_us
           in
           result
             ~claims:
               (fleet_claims reports
                @ [ all_cells
                      "static cells deny foreign requests, dynamic ones none"
                      (fun (r : Fleet_cell.report) ->
                         if r.config.partition = Hw_task_manager.Static then
                           r.jobs_denied > 0
                         else r.jobs_denied = 0)
                      reports;
                    all_cells "chaos cells injected faults"
                      (fun (r : Fleet_cell.report) ->
                         (not (chaotic r.config)) || r.injected > 0)
                      reports;
                    { claim = "under chaos the pinned victim's p99 is no worse";
                      holds =
                        p99 Hw_task_manager.Static
                        <= p99 Hw_task_manager.Dynamic } ])
             (Obj
                [ ("seed", Int base.seed);
                  ("runs", tagged_runs Partition.report_json reports) ])) }

(* --- single runs: scenario, trace --- *)

let scenario =
  { name = "scenario";
    title = "one Table III cell";
    define =
      (fun a ->
         let cfg = smp_scenario_args a bench_base in
         let guests = a.value Cli_args.guests in
         fun () ->
           let g = guests () in
           let o = List.hd (table3_cells (cfg ()) [ g ]) in
           result
             (Obj (("config", Str (config_label g)) :: overheads_fields o))) }

let last_spec =
  Cli_args.int ~min:0 [ "n"; "last" ] "How many trailing events to show." 60

(* A compact two-VM demo with hardware tasks, traced end to end. *)
let two_vm_trace () =
  let smp = Fleet.boot ~pcpus:1 () in
  let tr = Ktrace.create ~capacity:4096 in
  Kernel.set_trace (Smp.kernel smp 0) (Some tr);
  let qam = Smp.register_hw_task smp (Task_kind.Qam 16) in
  for g = 0 to 1 do
    ignore
      (Smp.create_vm smp
         ~name:(Printf.sprintf "vm%d" g)
         (fun genv ->
            let os = Ucos.create (Port.paravirt genv) in
            ignore
              (Ucos.spawn os ~name:"worker" ~prio:5 (fun () ->
                   for _ = 1 to 2 do
                     (match
                        Hw_task_api.acquire os ~task:qam ~want_irq:true ()
                      with
                      | Ok h ->
                        let bits = Array.init 16 (fun i -> i land 1) in
                        ignore (Hw_task_api.run_qam_mod os h ~order:16 ~bits);
                        Hw_task_api.release os h
                      | Error _ -> ());
                     Ucos.delay os 2
                   done));
            Ucos.run os))
  done;
  Smp.run smp ~until:(Cycles.of_ms 200.0);
  tr

let trace =
  { name = "trace";
    title = "traced two-VM demo";
    define =
      (fun a ->
         let last = a.value last_spec in
         fun () ->
           let tr = two_vm_trace () in
           let events = Ktrace.events tr in
           let n = List.length events in
           let shown = List.filteri (fun i _ -> i >= n - last ()) events in
           result
             (Obj
                [ ("events", Int n);
                  ("dropped", Int (Ktrace.dropped tr));
                  ( "timeline",
                    List
                      (List.map
                         (fun e -> Str (Format.asprintf "%a" Ktrace.pp_event e))
                         shown) ) ])) }

let registry =
  [ table3; fig9; report; reconfig; axi; vfp; trapvshyper; asid; quantum;
    chaos; soak; slo; density; partition; scenario; trace ]

(* --- the argv step: [NAME FLAGS] or [all [NAME...] FLAGS] ---

   The named experiments' entries and the front end's own flags,
   parsed once. *)

let command sections argv =
  let rec split names = function
    | a :: rest when not (String.starts_with ~prefix:"-" a) ->
      split (a :: names) rest
    | flags -> (List.rev names, flags)
  in
  let all, names, flags =
    match argv with
    | "all" :: rest -> (
      match split [] rest with
      | [], flags -> (true, List.map (fun e -> e.name) sections, flags)
      | names, flags -> (true, names, flags))
    | name :: flags -> (false, [ name ], flags)
    | [] -> (true, List.map (fun e -> e.name) sections, [])
  in
  let find n = List.find_opt (fun e -> e.name = n) sections in
  match List.find_opt (fun n -> find n = None) names with
  | Some n -> Error ("unknown experiment " ^ n)
  | None -> (
    let named = List.filter_map find names in
    (* A reader registers one argv entry and returns its value's getter. *)
    let entries = ref [] in
    let reader make spec =
      let r, e = make spec in
      entries := e :: !entries;
      fun () -> !r
    in
    let runs =
      let args =
        { value = (fun spec -> reader Cli_args.value_ref spec);
          flag = reader Cli_args.flag_ref }
      in
      List.map (fun e -> (e, e.define args)) named
    in
    let assert_ = reader Cli_args.flag_ref Cli_args.assert_ in
    let help = reader Cli_args.flag_ref Cli_args.help in
    let entries = List.rev !entries in
    match Cli_args.parse entries flags with
    | Error m -> Error m
    | Ok (p :: _) -> Error ("unexpected argument " ^ p)
    | Ok [] ->
      Ok
        { all; runs; entries; assert_ = assert_ (); help = help () })
