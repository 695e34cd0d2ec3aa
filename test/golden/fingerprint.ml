(* Deterministic fingerprints of every registry experiment at a small
   configuration, and of the full default Table III sweep
   ([table3_full], whose [sim_cycles] pin every cell's exact cycles):
   the experiment's JSON document, with host-time fields and source
   line counts stripped. The dune rules next to this
   file diff the output against the committed [*.expected] files;
   [dune promote] regenerates them.

     fingerprint.exe NAME   # print NAME's fingerprint(s) *)

(* The configuration of each fingerprint, as mininova flags; [true]
   when it is also fingerprinted at --pcpus 4. *)
let configs =
  [ ("table3", ([ "--requests"; "6"; "--warmup"; "2"; "--guests"; "2" ], true));
    ("table3_full", ([], false));
    ("fig9", ([ "--requests"; "6"; "--warmup"; "2"; "--guests"; "2" ], true));
    ("report", ([], false));
    ("reconfig", ([], false));
    ("axi", ([], false));
    ("vfp", ([], false));
    ("trapvshyper", ([], false));
    ("asid", ([ "--requests"; "3"; "--warmup"; "1" ], false));
    ("quantum", ([ "--requests"; "3"; "--warmup"; "1" ], false));
    ("chaos", ([ "--requests"; "6"; "--guests"; "2"; "--fault-rate"; "0.15" ], false));
    ("soak", ([ "--ops"; "2000"; "--shards"; "2" ], true));
    ("slo", ([ "--arrivals"; "4" ], true));
    ("slo_obs", ([ "--arrivals"; "4"; "--obs" ], false));
    ( "density",
      ([ "--vms"; "8"; "--jobs"; "4"; "--fault-rate"; "0.05"; "--check" ], true) );
    ("partition", ([ "--jobs"; "8"; "--check" ], true));
    ("scenario", ([ "--requests"; "6"; "--warmup"; "2"; "--guests"; "2" ], true));
    ( "scenario_obs",
      ([ "--requests"; "6"; "--warmup"; "2"; "--guests"; "2"; "--obs" ], true) );
    ("trace", ([ "--last"; "20" ], false)) ]

(* A fingerprint names its experiment unless it is a variant. *)
let experiment_of = function
  | "table3_full" -> "table3"
  | "slo_obs" -> "slo"
  | "scenario_obs" -> "scenario"
  | name -> name

(* Host-dependent fields never enter a fingerprint. *)
let rec strip = function
  | Json_out.Obj kv ->
    Json_out.Obj
      (List.filter_map
         (fun (k, v) ->
            if k = "wall_s" || String.ends_with ~suffix:"_loc" k then None
            else Some (k, strip v))
         kv)
  | Json_out.List l -> Json_out.List (List.map strip l)
  | Json_out.Line v -> Json_out.Line (strip v)
  | v -> v

let fingerprint name argv =
  match Experiment.command Experiment.registry (experiment_of name :: argv) with
  | Ok { Experiment.runs = [ (_, run) ]; _ } -> strip (run ()).Experiment.json
  | Ok _ | Error _ -> failwith ("bad fingerprint flags for " ^ name)

let () =
  Logs.set_level (Some Logs.Error);
  let name = Sys.argv.(1) in
  let argv, smp = List.assoc name configs in
  List.iter
    (fun pcpus ->
       Printf.printf "# %s --pcpus %d\n%s\n" name pcpus
         (Json_out.to_string
            (fingerprint name
               (if smp then argv @ [ "--pcpus"; string_of_int pcpus ] else argv))))
    (if smp then [ 1; 4 ] else [ 1 ])
