(* Tests for the evaluation harness: a miniature Table III scenario run,
   table/figure construction, ablations, and the complexity report. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let tiny =
  { Scenario.default_config with
    Scenario.requests_per_guest = 8;
    warmup_requests = 2;
    job_fraction = 3 }

let test_scenario_native () =
  let o = Scenario.run_native ~config:tiny () in
  check cb "samples collected" true (o.Scenario.samples > 0);
  check (Alcotest.float 0.0) "native entry is zero" 0.0 o.Scenario.entry_us;
  check (Alcotest.float 0.0) "native plirq is zero" 0.0 o.Scenario.plirq_us;
  check cb "native exec in the paper's ballpark" true
    (o.Scenario.exec_us > 5.0 && o.Scenario.exec_us < 40.0);
  check cb "total equals exec natively" true
    (Float.abs (o.Scenario.total_us -. o.Scenario.exec_us) < 1e-9);
  check cb "reconfigurations happened" true (o.Scenario.reconfigs > 0);
  check ci "no hwmmu violations in a clean run" 0 o.Scenario.hwmmu_violations

let test_scenario_one_guest () =
  let o = Scenario.run_virtualized ~config:tiny ~guests:1 () in
  check cb "entry charged under virtualization" true (o.Scenario.entry_us > 0.1);
  check cb "exit charged" true (o.Scenario.exit_us > 0.1);
  check cb "total = entry+exec+exit" true
    (Float.abs
       (o.Scenario.total_us
        -. (o.Scenario.entry_us +. o.Scenario.exec_us +. o.Scenario.exit_us))
     < 1e-6);
  check cb "virtualized exec close to native scale" true
    (o.Scenario.exec_us > 5.0 && o.Scenario.exec_us < 40.0)

let test_scenario_determinism () =
  let a = Scenario.run_virtualized ~config:tiny ~guests:1 () in
  let b = Scenario.run_virtualized ~config:tiny ~guests:1 () in
  check cb "same seed, identical measurements" true
    (a.Scenario.total_us = b.Scenario.total_us
     && a.Scenario.reconfigs = b.Scenario.reconfigs
     && a.Scenario.sim_ms = b.Scenario.sim_ms)

(* Every job of a Table III run is checked strictly: a mismatch
   crashes T_hw, which stops its OS, and the run raises the job's
   message (a corrupted QAM result fails here with "qam job: roundtrip
   mismatch", not at the simulation cap). *)
let test_strict_job_checks () =
  let config =
    { tiny with Scenario.requests_per_guest = 16; job_fraction = 1 }
  in
  let v = Scenario.run_virtualized ~config ~guests:1 () in
  check cb "virtualized jobs verified" true (v.Scenario.jobs > 0);
  let n = Scenario.run_native ~config () in
  check cb "native jobs verified" true (n.Scenario.jobs > 0)

(* --- Tables / Fig 9 plumbing (on synthetic data) --- *)

let fake entry exit_ plirq exec =
  { Scenario.entry_us = entry; exit_us = exit_; plirq_us = plirq;
    exec_us = exec; total_us = entry +. exec +. exit_;
    samples = 1; reconfigs = 0; reclaims = 0; jobs = 0;
    hwmmu_violations = 0; sim_ms = 0.0; sim_cycles = 0;
    metrics = Obs.empty_snapshot }

let sweep =
  [ fake 0.0 0.0 0.0 15.0;     (* native *)
    fake 0.9 0.7 0.2 15.5;     (* 1 VM *)
    fake 1.1 0.9 0.4 16.0 ]    (* 2 VMs *)

let test_table3_rows () =
  let rows = Tables.table3_rows sweep in
  check ci "five metrics" 5 (List.length rows);
  let metric, values = List.hd rows in
  check Alcotest.string "first row" "HW Manager entry" metric;
  check (Alcotest.list (Alcotest.float 1e-9)) "entry values" [ 0.0; 0.9; 1.1 ]
    values;
  let _, totals = List.nth rows 4 in
  check (Alcotest.list (Alcotest.float 1e-9)) "totals" [ 15.0; 17.1; 18.0 ]
    totals

let test_fig9_normalisation () =
  let rows = Tables.fig9_rows sweep in
  (* entry (zero natively) normalises to the 1-VM value... *)
  let _, entry = List.hd rows in
  check (Alcotest.list (Alcotest.float 1e-6)) "entry ratios"
    [ 1.0; 1.1 /. 0.9 ] entry;
  (* ...execution normalises to native (paper Eq 1). *)
  let _, exec = List.nth rows 3 in
  check (Alcotest.list (Alcotest.float 1e-6)) "exec ratios"
    [ 15.5 /. 15.0; 16.0 /. 15.0 ] exec

let test_paper_fig9_shape () =
  (* The paper's own numbers: every ratio series is non-decreasing. *)
  List.iter
    (fun (metric, ratios) ->
       let rec mono = function
         | a :: (b :: _ as rest) ->
           check cb (metric ^ " monotone") true (b >= a -. 1e-9);
           mono rest
         | _ -> ()
       in
       mono ratios)
    Tables.paper_fig9

(* --- Ablations --- *)

let test_reconfig_table () =
  let rows = Ablations.reconfig_table () in
  check ci "one row per task" (List.length Scenario.standard_task_set)
    (List.length rows);
  (* Latency grows with bitstream size. *)
  List.iter
    (fun r ->
       let expected_ms =
         float_of_int (r.Ablations.bitstream_kb * 1024) /. 145.0e6 *. 1e3
       in
       check cb
         (r.Ablations.task ^ " latency matches PCAP throughput")
         true
         (Float.abs (r.Ablations.reconfig_ms -. expected_ms)
          < 0.02 *. expected_ms +. 0.01))
    rows;
  let fft8k = List.find (fun r -> r.Ablations.task = "FFT-8192") rows in
  let qam = List.find (fun r -> r.Ablations.task = "QAM-4") rows in
  check cb "FFT-8192 slower than QAM-4" true
    (fft8k.Ablations.reconfig_ms > qam.Ablations.reconfig_ms)

let test_axi_ablation () =
  let r = Ablations.axi_ablation () in
  check cb "ACP wire-faster" true (r.Ablations.acp_dma_us <= r.Ablations.hp_dma_us);
  check cb "but ACP pollutes the CPU's L2 (paper S IV-A)" true
    (r.Ablations.cpu_after_acp_us > r.Ablations.cpu_after_hp_us *. 1.2)

let test_vfp_ablation () =
  let r = Ablations.vfp_ablation ~switches:60 () in
  check cb "lazy does fewer VFP switches" true
    (r.Ablations.lazy_vfp_switches < r.Ablations.active_vfp_switches);
  check cb "active switching costs more per VM switch" true
    (r.Ablations.active_switch_us > r.Ablations.lazy_switch_us)

let test_trap_vs_hypercall () =
  let r = Ablations.trap_vs_hypercall ~iterations:100 () in
  check cb "hypercall cheaper than trap-and-emulate (paper S II-A)" true
    (r.Ablations.hypercall_us < r.Ablations.trap_us);
  check cb "both nonzero" true (r.Ablations.hypercall_us > 0.0)

(* --- Complexity report --- *)

let test_complexity_report () =
  (* The source root: from _build/default/test under dune runtest, or
     the working directory when the suite is run from the root. *)
  let root = if Sys.file_exists "lib/core" then "." else "../../.." in
  let r = Complexity.measure ~root () in
  check ci "hypercalls from the ABI" 25 r.Complexity.hypercalls;
  check (Alcotest.float 0.5) "33 ms time slice" 33.0 r.Complexity.time_slice_ms;
  (match r.Complexity.glue_loc with
   | Some n -> check cb "glue LoC counted" true (n > 0)
   | None -> Alcotest.fail "glue LoC missing (sources not found)")

(* Every lib/ directory is counted, and counted once. *)
let test_complexity_buckets () =
  let root = if Sys.file_exists "lib/core" then "." else "../../.." in
  let lib = Filename.concat root "lib" in
  let dirs =
    Sys.readdir lib |> Array.to_list
    |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
    |> List.map (( ^ ) "lib/")
    |> List.sort compare
  in
  check cb "lib/ has directories" true (dirs <> []);
  let buckets =
    Complexity.(kernel_dirs @ guest_dirs @ substrate_dirs @ glue_dirs)
  in
  List.iter
    (fun d ->
       check ci (d ^ " is in exactly one bucket") 1
         (List.length (List.filter (( = ) d) buckets)))
    dirs

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  let s n f = Alcotest.test_case n `Slow f in
  ( "harness",
    [ s "scenario native" test_scenario_native;
      s "scenario one guest" test_scenario_one_guest;
      s "scenario determinism" test_scenario_determinism;
      t "table3 rows" test_table3_rows;
      t "fig9 normalisation" test_fig9_normalisation;
      t "paper fig9 shape" test_paper_fig9_shape;
      t "reconfig table" test_reconfig_table;
      s "axi ablation" test_axi_ablation;
      s "vfp ablation" test_vfp_ablation;
      s "trap vs hypercall" test_trap_vs_hypercall;
      t "complexity report" test_complexity_report;
      t "complexity buckets cover lib" test_complexity_buckets;
      s "strict job checks end the run" test_strict_job_checks ] )
