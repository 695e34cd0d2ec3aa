(* mininova — run one experiment of the Mini-NOVA reproduction.

     mininova NAME [FLAGS]       the JSON document; its claims on stderr
     mininova NAME --help        the flags NAME reads

   NAME is any Experiment.registry entry (table3, fig9, report,
   reconfig, axi, vfp, trapvshyper, asid, quantum, chaos, soak, slo,
   density, partition, scenario, trace). --assert exits 1 when
   a claim fails. *)

let fmt = Format.std_formatter

let usage () =
  Format.fprintf fmt "usage: mininova NAME [FLAGS]@.@.experiments:@.";
  List.iter
    (fun (e : Experiment.t) ->
       Format.fprintf fmt "  %-12s %s@." e.Experiment.name e.Experiment.title)
    Experiment.registry

let fail msg =
  Format.eprintf "mininova: %s@." msg;
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | ("--help" | "help") :: _ -> usage ()
  | name :: argv ->
    let e =
      match Experiment.find name with
      | Some e -> e
      | None -> fail ("unknown experiment " ^ name)
    in
    let entries, run = Experiment.instantiate e in
    let assert_, assert_e = Cli_args.flag_ref Cli_args.assert_ in
    let verbose, verbose_e = Cli_args.flag_ref Cli_args.verbose in
    let help, help_e = Cli_args.flag_ref Cli_args.help in
    let entries = entries @ [ assert_e; verbose_e; help_e ] in
    (match Cli_args.parse entries argv with
     | Ok [] -> ()
     | Ok (extra :: _) -> fail ("unexpected argument " ^ extra)
     | Error m -> fail m);
    if !help then begin
      Format.fprintf fmt "usage: mininova %s [FLAGS]  (%s)@.@.flags:@.%a" name
        e.Experiment.title Cli_args.pp_usage entries;
      exit 0
    end;
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if !verbose then Logs.Info else Logs.Error));
    let r = try run () with Failure m | Invalid_argument m -> fail m in
    print_endline (Json_out.to_string r.Experiment.json);
    Experiment.pp_claims Format.err_formatter r;
    if !assert_ && not (Experiment.all_hold r) then exit 1
