(* mininova — the one front end of the Mini-NOVA reproduction.

     mininova NAME [FLAGS]          NAME's JSON document; its claims on stderr
     mininova all [NAME...] [FLAGS] the bench document over the named
                                    experiments (all of them when none)
     mininova NAME --help           the flags NAME reads

   NAME is any Experiment.registry entry (table3, fig9, report,
   reconfig, axi, vfp, trapvshyper, asid, quantum, chaos, soak, slo,
   density, partition, scenario, trace) or micro, the Bechamel
   microbenchmarks of the simulator's hot primitives (host ns/op).
   A flag none of the named experiments reads is refused (exit 2).
   --assert exits 1 when a claim fails; with table3 named,
   --check-baseline FILE exits 1 when the sweep's simulated cycles
   drift from FILE and --write-baseline FILE regenerates it. *)

(* --- micro: Bechamel microbenchmarks (host ns/op, no claims) --- *)

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
  (* A booted board with the fast path on or off. *)
  let board fast =
    let z = Zynq.create () in
    ignore (Kmem.create z);
    Fastpath.set_enabled z.Zynq.fast fast;
    z
  in
  let translate_bench =
    let z = board true in
    Test.make ~name:"mmu.translate"
      (Staged.stage (fun () ->
           ignore
             (Mmu.translate z.Zynq.mmu Mmu.Read ~priv:true
                Address_map.kernel_code_base)))
  in
  (* The same pinned footprint through both Exec paths: the compiled
     trace's replay (fast path, warm after the first visit) and the
     scalar reference walk (fast path disabled). The ratio is the
     host-side speedup of the acceleration layer on a warm footprint. *)
  let exec_fp =
    Exec.pin1 @@ Exec.make ~label:"bench.exec"
      ~code_base:Address_map.kernel_code_base ~code_bytes:512
      ~reads:[ { Exec.base = Address_map.kernel_data_base; len = 1024 } ]
      ~writes:
        [ { Exec.base = Address_map.kernel_data_base + 0x1000; len = 256 } ]
      ~base_cycles:20 ()
  in
  let exec_bench name ~fast =
    let z = board fast in
    Exec.run_pinned z ~priv:true exec_fp;
    Test.make ~name
      (Staged.stage (fun () -> Exec.run_pinned z ~priv:true exec_fp))
  in
  (* One ring-sized word write plus read-back on one data page, through
     the micro-TLB (fast) and through a plain MMU translation per word
     (fast path disabled on that board). *)
  let vword_bench name ~fast =
    let z = board fast in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let a = Address_map.kernel_data_base + (4 * (!i land 1023)) in
           Zynq.vwrite_word z ~priv:true a !i;
           ignore (Zynq.vread_word z ~priv:true a)))
  in
  [ cache_bench; tlb_bench; fft_bench; translate_bench;
    exec_bench "exec.replay" ~fast:true; exec_bench "exec.ref_walk" ~fast:false;
    vword_bench "zynq.vword" ~fast:true; vword_bench "zynq.vword_ref" ~fast:false ]

(* Host ns/op per primitive, sorted by name (Hashtbl.fold order is
   unspecified). 0.15 s per test keeps the OLS estimates of these tight
   loops stable. *)
let micro =
  { Experiment.name = "micro";
    title = "microbenchmarks (host ns/op)";
    define =
      (fun _ () ->
         let open Bechamel in
         let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.15) () in
         let clock = Toolkit.Instance.monotonic_clock in
         let ols =
           Analyze.ols ~r_square:false ~bootstrap:0
             ~predictors:[| Measure.run |]
         in
         let ns_per_op test =
           Hashtbl.fold
             (fun name est acc ->
                let ns =
                  match Analyze.OLS.estimates est with
                  | Some (t :: _) -> Json_out.Float t
                  | Some [] | None -> Json_out.Null
                in
                (name, ns) :: acc)
             (Analyze.all ols clock (Benchmark.all cfg [ clock ] test))
             []
         in
         { Experiment.json =
             Json_out.Obj
               (List.concat_map ns_per_op (micro_tests ())
                |> List.sort (fun (a, _) (b, _) -> String.compare a b));
           claims = [];
           cycles = [] }) }

(* --- the front end --- *)

let sections = Experiment.registry @ [ micro ]

let fail msg =
  Format.eprintf "mininova: %s@." msg;
  exit 2

let () =
  let argv =
    match List.tl (Array.to_list Sys.argv) with
    | [] | ("--help" | "help") :: _ -> [ "all"; "--help" ]
    | argv -> argv
  in
  let c =
    match Experiment.command sections argv with
    | Ok c -> c
    | Error m -> fail m
  in
  let names = List.map (fun ((e : Experiment.t), _) -> e.name) c.runs in
  if c.help then begin
    Format.printf
      "usage: mininova NAME [FLAGS]@.       mininova all [NAME...] [FLAGS]@.@.";
    List.iter
      (fun ((e : Experiment.t), _) -> Format.printf "  %-12s %s@." e.name e.title)
      c.runs;
    Format.printf "@.flags:@.%a" Cli_args.pp_usage c.entries;
    exit 0
  end;
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if c.verbose then Logs.Info else Logs.Error));
  let t_start = Unix.gettimeofday () in
  let results =
    List.map
      (fun (_, run) ->
         let t0 = Unix.gettimeofday () in
         let r = try run () with Failure m | Invalid_argument m -> fail m in
         (r, Unix.gettimeofday () -. t0))
      c.runs
  in
  let doc =
    let open Json_out in
    if not c.all then (fst (List.hd results)).Experiment.json
    else
      Obj
        [ ("schema", Str "mini-nova-bench/3");
          ("domains", Int (Parallel_sweep.default_domains ()));
          ("total_wall_s", Float (Unix.gettimeofday () -. t_start));
          ( "sections",
            List
              (List.map2
                 (fun name (r, wall) ->
                    Obj
                      [ ("name", Str name);
                        ("wall_s", Float wall);
                        ("claims", Experiment.claims_json r);
                        ("result", r.Experiment.json) ])
                 names results) ) ]
  in
  print_endline (Json_out.to_string doc);
  List.iter2
    (fun name (r, _) ->
       if c.all && r.Experiment.claims <> [] then Format.eprintf "%s:@." name;
       Experiment.pp_claims Format.err_formatter r)
    names results;
  (* Only table3 records cycles, and the baseline flags need it named. *)
  let cycles = List.concat_map (fun (r, _) -> r.Experiment.cycles) results in
  Option.iter
    (fun (path, oc) ->
       Experiment.write_baseline oc cycles;
       Format.eprintf "wrote baseline %s@." path)
    c.write_baseline;
  Option.iter
    (fun expected ->
       match Experiment.baseline_drift expected cycles with
       | [] ->
         Format.eprintf "baseline check passed (%d configurations)@."
           (List.length expected)
       | drift ->
         List.iter (Format.eprintf "%s@.") drift;
         Format.eprintf
           "FAIL: simulated cycles drifted from the committed baseline@.";
         exit 1)
    c.check_baseline;
  if c.assert_ && not (List.for_all (fun (r, _) -> Experiment.all_hold r) results)
  then exit 1
