(* The experiment registry and the argv engine both front ends share:
   every claim holds at a small configuration, a failing claim is
   reported as such, and one flag reaches every experiment reading it. *)

let check = Alcotest.check
let cb = Alcotest.bool

let instance name argv =
  let e = Option.get (Experiment.find name) in
  let entries, run = Experiment.instantiate e in
  (match Cli_args.parse entries argv with
   | Ok [] -> ()
   | Ok (p :: _) -> Alcotest.failf "%s: stray positional %s" name p
   | Error m -> Alcotest.failf "%s: %s" name m);
  run ()

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
  let _, e = Cli_args.value_ref Cli_args.pcpus in
  let _, f = Cli_args.flag_ref Cli_args.observe in
  let _, g = Cli_args.value_ref Cli_args.guests in
  let soak, _ = Experiment.instantiate (Option.get (Experiment.find "soak")) in
  let err argv =
    match Cli_args.parse ([ e; f; g ] @ soak) argv with
    | Ok _ -> false
    | Error _ -> true
  in
  check cb "unknown flag" true (err [ "--nope" ]);
  check cb "missing value" true (err [ "--pcpus" ]);
  check cb "bad value" true (err [ "--pcpus"; "0" ]);
  check cb "flag with a value" true (err [ "--obs=1" ]);
  check cb "negative guest count" true (err [ "--guests"; "-1" ]);
  check cb "count past max_int" true (err [ "--ops"; "9999999999999m" ]);
  check cb "soak reads no --check" true (err [ "--check" ]);
  let chaos, _ =
    Experiment.instantiate (Option.get (Experiment.find "chaos"))
  in
  check cb "chaos reads no --warmup" true
    (match Cli_args.parse chaos [ "--warmup"; "3" ] with
     | Ok _ -> false
     | Error _ -> true)

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
        test_density_batch_refused ] )
