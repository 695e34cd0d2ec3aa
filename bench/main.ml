(* The benchmark harness: runs any subset of the experiment registry
   (Table III, Figure 9, the complexity report, the ablations, chaos,
   soak, SLO, density, partitioning, ...) plus Bechamel
   microbenchmarks of the simulator's hot primitives.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3 fig9  # a subset

   Sections are the Experiment.registry names plus micro. Each prints
   its title, its JSON document and its claims; BENCH_sim.json collects
   every document. Flags are the union of the requested experiments'
   Cli_args specs plus --assert and the deterministic-cycle baseline
   gate (--check-baseline / --write-baseline). *)

let fmt = Format.std_formatter

(* --- Bechamel microbenchmarks --- *)

let micro_tests () =
  let open Bechamel in
  let cache_bench =
    let c =
      Cache.create
        { Cache.name = "b"; size_bytes = 32 * 1024; ways = 4; line_size = 32 }
    in
    let i = ref 0 in
    Test.make ~name:"cache.access"
      (Staged.stage (fun () ->
           incr i;
           ignore (Cache.access c (!i * 64) ~write:false)))
  in
  let tlb_bench =
    let t = Tlb.create Tlb.cortex_a9 in
    let i = ref 0 in
    Test.make ~name:"tlb.lookup+insert"
      (Staged.stage (fun () ->
           incr i;
           let vpage = !i land 0xFFFF in
           match Tlb.lookup t ~asid:1 ~vpage with
           | Some _ -> ()
           | None ->
             Tlb.insert t ~asid:1 ~vpage
               { Tlb.ppage = vpage; word = 0; global = false }))
  in
  let fft_bench =
    let re = Array.init 1024 (fun i -> sin (0.01 *. float_of_int i)) in
    let im = Array.make 1024 0.0 in
    Test.make ~name:"fft.1024"
      (Staged.stage (fun () ->
           let r = Array.copy re and i = Array.copy im in
           Fft.transform r i))
  in
  let adpcm_bench =
    let rng = Rng.create ~seed:3 in
    let pcm = Signal.speech_like rng 1024 in
    Test.make ~name:"adpcm.encode1k"
      (Staged.stage (fun () -> ignore (Adpcm.encode pcm)))
  in
  let translate_bench =
    let z = Zynq.create () in
    let _kmem = Kmem.create z in
    Test.make ~name:"mmu.translate"
      (Staged.stage (fun () ->
           ignore
             (Mmu.translate z.Zynq.mmu Mmu.Read ~priv:true
                Address_map.kernel_code_base)))
  in
  (* The same footprint through both Exec paths: the compiled-program
     replay (fast path, warm after the first visit) and the scalar
     reference walk (fast path disabled). The ratio is the host-side
     speedup of the acceleration layer on a warm footprint. *)
  let exec_fp =
    Exec.make ~label:"bench.exec"
      ~code_base:Address_map.kernel_code_base ~code_bytes:512
      ~reads:[ { Exec.base = Address_map.kernel_data_base; len = 1024 } ]
      ~writes:
        [ { Exec.base = Address_map.kernel_data_base + 0x1000; len = 256 } ]
      ~base_cycles:20 ()
  in
  let replay_bench =
    let z = Zynq.create () in
    let _kmem = Kmem.create z in
    ignore (Exec.run z ~priv:true exec_fp);
    Test.make ~name:"exec.replay"
      (Staged.stage (fun () -> ignore (Exec.run z ~priv:true exec_fp)))
  in
  let ref_walk_bench =
    let z = Zynq.create () in
    let _kmem = Kmem.create z in
    Fastpath.set_enabled z.Zynq.fast false;
    ignore (Exec.run z ~priv:true exec_fp);
    Test.make ~name:"exec.ref_walk"
      (Staged.stage (fun () -> ignore (Exec.run z ~priv:true exec_fp)))
  in
  (* One ring-sized word write plus read-back on one data page, through
     the micro-TLB (fast) and through a plain MMU translation per word
     (fast path disabled on that board). *)
  let vword_bench name ~fast =
    let z = Zynq.create () in
    let _kmem = Kmem.create z in
    Fastpath.set_enabled z.Zynq.fast fast;
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let a = Address_map.kernel_data_base + (4 * (!i land 1023)) in
           Zynq.vwrite_word z ~priv:true a !i;
           ignore (Zynq.vread_word z ~priv:true a)))
  in
  [ cache_bench; tlb_bench; fft_bench; adpcm_bench; translate_bench;
    replay_bench; ref_walk_bench; vword_bench "zynq.vword" ~fast:true;
    vword_bench "zynq.vword_ref" ~fast:false ]

(* Host ns/op per primitive, by name. *)
let run_micro () =
  let open Bechamel in
  (* 0.15 s per test keeps OLS estimates stable for these tight loops
     (millions of samples for the ns-scale ones) at half the wall
     cost of the old 0.3 s quota. *)
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.15) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  (* Collect and sort by name: Hashtbl.iter order is unspecified and
     made the report nondeterministic across runs. *)
  Json_out.Obj
    (List.concat_map
       (fun test ->
          let raw = Benchmark.all cfg instances test in
          let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
          Hashtbl.fold
            (fun name est acc ->
               let ns =
                 match Analyze.OLS.estimates est with
                 | Some (t :: _) -> Json_out.Float t
                 | Some [] | None -> Json_out.Null
               in
               (name, ns) :: acc)
            results [])
       (micro_tests ())
     |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* --- deterministic-cycle baseline (--check-baseline / --write-baseline) ---

   The simulation is deterministic and host-independent, so the exact
   simulated cycle counts of the Table III sweep are a commitable
   fingerprint. Observability does not advance the clock, so the same
   baseline holds with and without --obs. *)

let check_baseline_spec =
  Cli_args.file [ "check-baseline" ]
    "Compare the Table III sweep's deterministic simulated cycles \
     against the committed baseline FILE and exit non-zero on drift."

let write_baseline_spec =
  Cli_args.file [ "write-baseline" ]
    "Regenerate the deterministic cycle baseline FILE from this run's \
     Table III sweep."

let write_baseline path rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# mini-nova bench cycle baseline: <config> <sim_cycles>\n\
         # regenerate: dune exec bench/main.exe -- table3 --write-baseline FILE\n";
      List.iter (fun (name, cyc) -> Printf.fprintf oc "%s %d\n" name cyc) rows);
  Format.fprintf fmt "@.wrote baseline %s@." path

let read_baseline path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> None
         | w :: _ when w.[0] = '#' -> None
         | [ name; cyc ] when int_of_string_opt cyc <> None ->
           Some (name, int_of_string cyc)
         | _ -> failwith ("bad baseline line: " ^ line))

let check_baseline path actual =
  let expected = read_baseline path in
  let drift =
    if expected = [] then [ Printf.sprintf "baseline %s: no entries" path ]
    else
      List.filter_map
        (fun (name, cyc) ->
           match List.assoc_opt name actual with
           | None ->
             Some
               (Printf.sprintf "baseline %s: config missing from this run" name)
           | Some got when got <> cyc ->
             Some
               (Printf.sprintf
                  "baseline %s: expected %d cycles, got %d (drift %+d)" name
                  cyc got (got - cyc))
           | Some _ -> None)
        expected
  in
  List.iter (Format.fprintf fmt "%s@.") drift;
  if drift <> [] then begin
    Format.fprintf fmt
      "FAIL: simulated cycles drifted from the committed baseline@.";
    exit 1
  end;
  Format.fprintf fmt "baseline check passed (%d configurations)@."
    (List.length expected)

let fail msg =
  Format.eprintf "bench: %s@." msg;
  exit 2

let print_section title json =
  Format.fprintf fmt "@.===== %s =====@.%s@." title (Json_out.to_string json)

let () =
  let instances =
    List.map (fun e -> (e, Experiment.instantiate e)) Experiment.registry
  in
  let assert_, assert_e = Cli_args.flag_ref Cli_args.assert_ in
  let help, help_e = Cli_args.flag_ref Cli_args.help in
  let check_path, check_e = Cli_args.value_ref check_baseline_spec in
  let write_path, write_e = Cli_args.value_ref write_baseline_spec in
  let entries =
    List.concat_map (fun (_, (es, _)) -> es) instances
    @ [ assert_e; check_e; write_e; help_e ]
  in
  let all_sections =
    List.map (fun (e : Experiment.t) -> e.Experiment.name) Experiment.registry
    @ [ "micro" ]
  in
  let requested =
    match Cli_args.parse entries (List.tl (Array.to_list Sys.argv)) with
    | Error msg -> fail msg
    | Ok [] -> all_sections
    | Ok names ->
      (match List.find_opt (fun n -> not (List.mem n all_sections)) names with
       | Some n -> fail ("unknown section " ^ n)
       | None -> names)
  in
  if !help then begin
    Format.fprintf fmt
      "usage: bench [SECTION...] [FLAGS]@.@.sections: %s@.@.flags:@.%a"
      (String.concat " " all_sections) Cli_args.pp_usage entries;
    exit 0
  end;
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  let t_start = Unix.gettimeofday () in
  let micro = ref None in
  let sections =
    List.filter_map
      (fun name ->
         let t0 = Unix.gettimeofday () in
         match
           List.find_opt (fun (e, _) -> e.Experiment.name = name) instances
         with
         | None ->
           let doc = run_micro () in
           print_section "microbenchmarks (host ns/op)" doc;
           micro := Some doc;
           None
         | Some (e, (_, run)) ->
           let r = try run () with Failure m | Invalid_argument m -> fail m in
           print_section e.Experiment.title r.Experiment.json;
           Experiment.pp_claims fmt r;
           Some (name, Unix.gettimeofday () -. t0, r))
      requested
  in
  (* The table3 sweep is cached, so this reuses a requested run. *)
  let table3_cycles () =
    let _, (_, run) =
      List.find (fun (e, _) -> e.Experiment.name = "table3") instances
    in
    (run ()).Experiment.cycles
  in
  Option.iter (fun p -> write_baseline p (table3_cycles ())) !write_path;
  Option.iter (fun p -> check_baseline p (table3_cycles ())) !check_path;
  let doc =
    let open Json_out in
    Obj
      ([ ("schema", Str "mini-nova-bench/2");
         ("domains", Int (Parallel_sweep.default_domains ()));
         ("total_wall_s", Float (Unix.gettimeofday () -. t_start));
         ( "sections",
           List
             (List.map
                (fun (name, wall, r) ->
                   Obj
                     [ ("name", Str name);
                       ("wall_s", Float wall);
                       ("claims", Experiment.claims_json r);
                       ("result", r.Experiment.json) ])
                sections) ) ]
       @ Option.fold ~none:[]
           ~some:(fun m -> [ ("micro_ns_per_op", m) ])
           !micro)
  in
  Out_channel.with_open_text "BENCH_sim.json" (fun oc ->
      output_string oc (Json_out.to_string doc ^ "\n"));
  Format.fprintf fmt "@.wrote BENCH_sim.json@.";
  if
    !assert_
    && not (List.for_all (fun (_, _, r) -> Experiment.all_hold r) sections)
  then exit 1
