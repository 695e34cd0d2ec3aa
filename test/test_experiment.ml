(* The experiment registry and the front end's argv step: every claim
   holds at a small configuration, a failing claim is reported as such,
   one flag reaches every experiment reading it, and a flag no named
   experiment reads is refused. *)

let check = Alcotest.check
let cb = Alcotest.bool

let instance name argv =
  match Experiment.command Experiment.registry (name :: argv) with
  | Ok { Experiment.runs = [ (_, run) ]; _ } -> run ()
  | Ok _ -> Alcotest.failf "%s: not one run" name
  | Error m -> Alcotest.failf "%s: %s" name m

let claims_hold name argv () =
  let r = instance name argv in
  check cb (name ^ " has claims") true (r.Experiment.claims <> []);
  List.iter
    (fun c -> check cb (name ^ ": " ^ c.Experiment.claim) true c.Experiment.holds)
    r.Experiment.claims

let test_registry_names () =
  check
    Alcotest.(list string)
    "registry order"
    [ "table3"; "fig9"; "report"; "reconfig"; "axi"; "vfp"; "trapvshyper";
      "asid"; "quantum"; "chaos"; "soak"; "slo"; "density"; "partition";
      "scenario"; "trace" ]
    (List.map (fun (e : Experiment.t) -> e.Experiment.name) Experiment.registry)

(* scenario is one Table III cell: at the same flags its document is
   table3's run of the same configuration, field for field; --guests 0
   is the native cell. *)
let test_scenario_is_a_table3_cell () =
  let flags = [ "--requests"; "6"; "--warmup"; "2" ] in
  let runs =
    match (instance "table3" (flags @ [ "--guests"; "2" ])).Experiment.json with
    | Json_out.Obj kv ->
      (match List.assoc_opt "runs" kv with
       | Some (Json_out.List runs) -> runs
       | _ -> Alcotest.fail "table3: no runs")
    | _ -> Alcotest.fail "table3: not an object"
  in
  let run tag =
    List.find
      (function
        | Json_out.Obj (("config", Json_out.Str c) :: _) -> c = tag
        | _ -> false)
      runs
  in
  let doc argv =
    Json_out.to_string (instance "scenario" (flags @ argv)).Experiment.json
  in
  check Alcotest.string "--guests 2 is the 2os run"
    (Json_out.to_string (run "2os")) (doc [ "--guests"; "2" ]);
  check Alcotest.string "--guests 0 is the native run"
    (Json_out.to_string (run "native")) (doc [ "--guests"; "0" ])

let test_failing_claim_reported () =
  (* Four jobs per guest cannot fill a batch of 8: the transition ratio
     claim is computed and fails rather than being dropped. *)
  let r = instance "density" [ "--vms"; "8"; "--jobs"; "4" ] in
  check cb "some claim fails" false (Experiment.all_hold r);
  let s = Format.asprintf "%a" Experiment.pp_claims r in
  check cb "the failure is printed" true
    (String.length s > 0
     && List.exists
          (fun l -> String.length l > 10 && String.sub l 0 10 = "claim FAIL")
          (String.split_on_char '\n' s))

(* A v2 round enqueues the batch plus the previous round's releases on
   a 32-entry ring: a batch past 16 would drop jobs, so it is refused. *)
let test_density_batch_refused () =
  match instance "density" [ "--vms"; "4"; "--batch"; "17" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "density ran with --batch 17"

let test_shared_flag_reaches_all () =
  let a, ea = Cli_args.value_ref Cli_args.seed in
  let b, eb = Cli_args.value_ref { Cli_args.seed with default = 7 } in
  let on, eo = Cli_args.flag_ref Cli_args.observe in
  (match Cli_args.parse [ ea; eb; eo ] [ "x"; "--seed=5"; "--obs"; "y" ] with
   | Ok pos -> check Alcotest.(list string) "positionals in order" [ "x"; "y" ] pos
   | Error m -> Alcotest.fail m);
  check Alcotest.int "first reader" 5 !a;
  check Alcotest.int "second reader" 5 !b;
  check cb "flag set" true !on

let test_parse_errors () =
  let err names argv =
    Result.is_error
      (Experiment.command Experiment.registry (("all" :: names) @ argv))
  in
  check cb "unknown flag" true (err [ "soak" ] [ "--nope" ]);
  check cb "missing value" true (err [ "soak" ] [ "--pcpus" ]);
  check cb "bad value" true (err [ "soak" ] [ "--pcpus"; "0" ]);
  check cb "flag with a value" true (err [ "chaos" ] [ "--obs=1" ]);
  check cb "negative guest count" true (err [ "chaos" ] [ "--guests"; "-1" ]);
  check cb "count past max_int" true
    (err [ "soak" ] [ "--ops"; "9999999999999m" ]);
  check cb "soak reads no --check" true (err [ "soak" ] [ "--check" ]);
  check cb "chaos reads no --warmup" true (err [ "chaos" ] [ "--warmup"; "3" ]);
  List.iter
    (fun (what, names, argv) -> check cb what true (err names argv))
    [ ("non-finite fault rate", [ "chaos" ], [ "--fault-rate"; "nan" ]);
      ("infinite fault rate", [ "chaos" ], [ "--fault-rate"; "inf" ]);
      ("fault rate above 1", [ "chaos" ], [ "--fault-rate"; "2" ]);
      ("negative fault rate", [ "density" ], [ "--fault-rate"; "-1" ]);
      ("zero quantum", [ "soak" ], [ "--quantum"; "0" ]);
      ("negative quantum", [ "table3" ], [ "--quantum"; "-5" ]);
      ("non-finite quantum", [ "soak" ], [ "-q"; "nan" ]);
      ("pcpus past the GIC's CPU interfaces", [ "soak" ], [ "--pcpus"; "9" ]);
      ("pcpus past max_int", [ "density" ],
       [ "--pcpus"; "99999999999999999999" ]);
      ("a huge pcpus", [ "partition" ], [ "--pcpus"; "1000000000" ]);
      ("zero requests", [ "table3" ], [ "--requests"; "0" ]);
      ("negative requests", [ "scenario" ], [ "--requests"; "-1" ]);
      ("negative warm-up", [ "table3" ], [ "--warmup"; "-1" ]) ];
  check cb "a fault rate of 1 is a probability" false
    (err [ "chaos" ] [ "--fault-rate"; "1" ]);
  check cb "Smp.max_pcpus pCPUs are accepted" false
    (err [ "soak" ] [ "--pcpus"; string_of_int Smp.max_pcpus ])

(* --- the front end's argv step --- *)

let command argv = Experiment.command Experiment.registry argv

let test_flag_must_be_read () =
  let ok argv = Result.is_ok (command argv) in
  check cb "no named section reads --arrivals" false
    (ok [ "all"; "table3"; "--arrivals"; "5" ]);
  check cb "slo reads --arrivals" true
    (ok [ "all"; "table3"; "slo"; "--arrivals"; "5" ]);
  check cb "unknown section" false (ok [ "all"; "table3"; "nope" ]);
  check cb "unknown experiment" false (ok [ "nope" ]);
  check cb "a name after the flags" false (ok [ "all"; "--obs"; "table3" ]);
  List.iter
    (fun argv -> check cb (String.concat " " argv) false (ok argv))
    [ [ "table3"; "--check-baseline"; "F" ];
      [ "table3"; "--write-baseline"; "F" ];
      [ "partition"; "--partition"; "static" ];
      [ "partition"; "--chaos"; "on" ];
      [ "density"; "--ring-admission"; "deadline" ] ];
  match command [ "all" ] with
  | Ok c ->
    check
      Alcotest.(list string)
      "all with no name runs the registry"
      (List.map (fun (e : Experiment.t) -> e.name) Experiment.registry)
      (List.map (fun ((e : Experiment.t), _) -> e.name) c.Experiment.runs)
  | Error m -> Alcotest.fail m

(* [all] hands each section the flags it reads, exactly as a single run
   does: its result is the single run's document, byte for byte. *)
let test_all_result_is_the_single_document () =
  let t3 = [ "--requests"; "6"; "--warmup"; "2"; "--guests"; "2" ] in
  let dens = [ "--vms"; "8"; "--jobs"; "4" ] in
  let doc r = Json_out.to_string r.Experiment.json in
  match command ([ "all"; "table3"; "density" ] @ t3 @ dens) with
  | Ok { Experiment.runs = [ (_, t3_run); (_, dens_run) ]; _ } ->
    check Alcotest.string "table3" (doc (instance "table3" t3)) (doc (t3_run ()));
    check Alcotest.string "density" (doc (instance "density" dens))
      (doc (dens_run ()))
  | Ok _ -> Alcotest.fail "not two runs"
  | Error m -> Alcotest.fail m

let suite =
  ( "experiment",
    let t = Alcotest.test_case in
    [ t "registry names" `Quick test_registry_names;
      t "shared flag reaches every reader" `Quick test_shared_flag_reaches_all;
      t "argv errors" `Quick test_parse_errors;
      t "a failing claim is reported" `Quick test_failing_claim_reported;
      t "chaos claims" `Quick
        (claims_hold "chaos"
           [ "--requests"; "15"; "--guests"; "2"; "--fault-rate"; "0.15" ]);
      t "soak claims" `Quick
        (claims_hold "soak" [ "--ops"; "5000"; "--shards"; "2"; "--pcpus"; "2" ]);
      t "slo claims" `Quick (claims_hold "slo" [ "--arrivals"; "10" ]);
      t "density claims" `Quick
        (claims_hold "density" [ "--vms"; "8"; "--check"; "--fault-rate"; "0.05" ]);
      t "density claims at 4 pCPUs" `Quick
        (claims_hold "density" [ "--vms"; "8"; "--pcpus"; "4"; "--check" ]);
      t "partition claims" `Quick (claims_hold "partition" [ "--check" ]);
      t "scenario is a table3 cell" `Quick test_scenario_is_a_table3_cell;
      t "density refuses a batch past half the ring" `Quick
        test_density_batch_refused;
      t "a flag no named section reads is refused" `Quick
        test_flag_must_be_read;
      t "an all section's result is its single-run document" `Quick
        test_all_result_is_the_single_document;
      t "slo claims at 30 arrivals" `Quick
        (claims_hold "slo" [ "--arrivals"; "30" ]);
      t "density claims at 64 VMs" `Quick
        (claims_hold "density"
           [ "--vms"; "64"; "--check"; "--fault-rate"; "0.05" ]);
      t "density claims at 4 pCPUs under faults" `Quick
        (claims_hold "density"
           [ "--vms"; "8"; "--pcpus"; "4"; "--check"; "--fault-rate"; "0.05" ]) ] )
