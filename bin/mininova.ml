(* mininova — the one front end of the Mini-NOVA reproduction.

     mininova NAME [FLAGS]          NAME's JSON document; its claims on stderr
     mininova all [NAME...] [FLAGS] the bench document over the named
                                    experiments (all of them when none)
     mininova NAME --help           the flags NAME reads

   NAME is any Experiment.registry entry (table3, fig9, report,
   reconfig, axi, vfp, trapvshyper, asid, quantum, chaos, soak, slo,
   density, partition, scenario, trace).
   A flag none of the named experiments reads is refused (exit 2).
   --assert exits 1 when a claim fails. *)

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
    match Experiment.command Experiment.registry argv with
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
  if c.assert_ && not (List.for_all (fun (r, _) -> Experiment.all_hold r) results)
  then exit 1
