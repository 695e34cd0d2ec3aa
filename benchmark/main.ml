(* Mini-NOVA repository benchmark.

     dune exec benchmark/main.exe -- --seed 42
       every workload: 3 untraced instances, one untraced instance at
       one worker and one traced instance each; prints every metric and
       the layer table, writes benchmark/results/suite-seed42.json

     dune exec benchmark/main.exe -- --workload W --seed N --seconds S --trace T
       one run of one workload. --trace 0 repeats untraced instances
       for S seconds (at least 3) and reports the end-to-end metrics;
       --trace 1 reports the per-layer metrics. The last line of
       standard output is the result object.

   Each instance runs in a fresh child process of this executable
   (--child). A failed self-check ends the command with exit code 1
   and no result. *)

open Benchkit

let workers = min 2 (Domain.recommended_domain_count ())

let spawn kind ~seed (spec : Instance.spec) =
  let failed msg =
    { Instance.metrics = []; fingerprint = ""; attempted = 0; failed = 0;
      errors = [ msg ] }
  in
  let args =
    [| Sys.executable_name; "--child"; Workload.name kind; "--seed";
       string_of_int seed; "--workers"; string_of_int spec.workers; "--trace";
       (if spec.traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    (match Json.of_string (String.trim out) with
     | Ok j -> Instance.of_json j
     | Error e -> failed ("unreadable instance output: " ^ e))
  | Unix.WEXITED c -> failed (Printf.sprintf "instance exited with code %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failed (Printf.sprintf "instance killed by signal %d" s)

let read_file f =
  match In_channel.with_open_text f In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The checked-out commit, read from .git without running git. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let r = String.sub head 5 (String.length head - 5) in
    (match read_file (Filename.concat ".git" r) with
     | Some sha -> sha
     | None ->
       let packed = Option.value (read_file ".git/packed-refs") ~default:"" in
       List.fold_left
         (fun acc line ->
            match String.split_on_char ' ' line with
            | [ sha; name ] when name = r -> sha
            | _ -> acc)
         "unknown"
         (String.split_on_char '\n' packed))
  | Some sha -> sha

let write_result ~file ~seed ~seconds ~trace outcomes =
  let dir = Filename.concat "benchmark" "results" in
  if Sys.file_exists "benchmark" && Sys.is_directory "benchmark" then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let num i = Json.Num (float_of_int i) in
    let meta =
      Json.Obj
        [ ("rev", Json.Str (git_rev ()));
          ("nproc", num (Domain.recommended_domain_count ()));
          ("ocaml", Json.Str Sys.ocaml_version);
          ("workers", num workers);
          ("seed", num seed);
          ("seconds", Json.Num seconds);
          ("trace", Json.Str trace) ]
    in
    Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("meta", meta);
                  ("runs", Json.Arr (List.map Plan.to_json outcomes)) ]));
        output_char oc '\n')
  end

let fail errors =
  List.iter prerr_endline ("benchmark run invalid:" :: errors);
  exit 1

let measure kind ~seed ~seconds ~end_to_end ~per_layer =
  Plan.measure ~spawn:(spawn kind ~seed) kind ~size:(Workload.default_size kind)
    ~seed ~workers ~end_to_end ~per_layer ~seconds ~min_untraced:3

let result_line (o : Plan.outcome) metrics =
  Json.Obj
    [ ("correct", Json.Bool true);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Catalog.metric) ->
                ( m.name,
                  Json.Obj
                    [ ("value", Json.Num (Plan.value o m.name));
                      ("unit", Json.Str m.unit_) ] ))
             metrics) ) ]

let () =
  let seed = ref 42 and seconds = ref 0.0 and trace = ref (-1) in
  let workload = ref "" and child = ref "" and child_workers = ref workers in
  let usage = "main.exe [--workload W --seconds S --trace 0|1] [--seed N]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W one run of one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--child", Arg.Set_string child, "W run one instance (internal)");
      ("--workers", Arg.Set_int child_workers, "K host domains of a child") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind_of name =
    match Workload.of_name name with
    | Some k -> k
    | None ->
      prerr_endline
        ("unknown workload " ^ name ^ "; one of "
         ^ String.concat ", " (List.map Workload.name Workload.all));
      exit 2
  in
  if !child <> "" then begin
    let kind = kind_of !child in
    let i =
      Instance.run kind ~size:(Workload.default_size kind) ~seed:!seed
        { workers = !child_workers; traced = !trace = 1 }
    in
    print_endline (Json.to_string (Instance.to_json i))
  end
  else if !workload <> "" then begin
    let kind = kind_of !workload in
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace must be 0 or 1";
      exit 2
    end;
    let traced = !trace = 1 in
    match
      measure kind ~seed:!seed ~seconds:!seconds ~end_to_end:(not traced)
        ~per_layer:traced
    with
    | Error errors -> fail errors
    | Ok o ->
      Format.printf "%a@." Plan.print o;
      write_result
        ~file:(Printf.sprintf "%s-seed%d-trace%d.json" (Workload.name kind) !seed !trace)
        ~seed:!seed ~seconds:!seconds ~trace:(string_of_int !trace) [ o ];
      print_endline
        (Json.to_string
           (result_line o (if traced then Catalog.per_layer else Catalog.end_to_end)))
  end
  else begin
    let results =
      List.map
        (fun kind ->
           measure kind ~seed:!seed ~seconds:!seconds ~end_to_end:true ~per_layer:true)
        Workload.all
    in
    match List.concat_map (function Error e -> e | Ok _ -> []) results with
    | [] ->
      let outcomes = List.filter_map Result.to_option results in
      List.iter (Format.printf "%a@." Plan.print) outcomes;
      write_result ~file:(Printf.sprintf "suite-seed%d.json" !seed) ~seed:!seed
        ~seconds:!seconds ~trace:"both" outcomes;
      Format.printf "rev %s  nproc %d  ocaml %s  workers %d  seed %d@." (git_rev ())
        (Domain.recommended_domain_count ()) Sys.ocaml_version workers !seed
    | errors -> fail errors
  end
