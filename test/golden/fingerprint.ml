(* Deterministic fingerprints of every registry experiment at a small
   configuration, of the full default Table III sweep ([table3_full],
   whose [sim_cycles] pin every cell's exact cycles) and of the larger
   cells the run-setting contracts are held to: the experiment's JSON
   document, with host-time fields and source line counts stripped.

   Results must not depend on the run settings, so [fingerprint.exe
   NAME] takes NAME's document once per setting, each time in a child
   of itself whose environment is this one with MININOVA_FASTPATH and
   MININOVA_DOMAINS removed and that one setting added: both unset, the
   fast path off, and one, two and four host domains. A child whose
   document differs from the unset one makes it exit 1, naming the
   setting and the first line that differs; otherwise it prints the
   document once. The dune rules next to this file diff that against
   the committed [NAME.expected]; [dune promote] regenerates them.

     fingerprint.exe NAME   # NAME's fingerprint, checked under every setting *)

(* Each fingerprint's mininova flags, and [true] when it is also taken
   at --pcpus 4. A row's experiment is its name up to the first '_'. *)
let rows =
  [ ("table3", "--requests 6 --warmup 2 --guests 2", true);
    ("table3_full", "", false);
    ("fig9", "--requests 6 --warmup 2 --guests 2", true);
    ("report", "", false);
    ("reconfig", "", false);
    ("axi", "", false);
    ("vfp", "", false);
    ("trapvshyper", "", false);
    ("asid", "--requests 3 --warmup 1", false);
    ("quantum", "--requests 3 --warmup 1", false);
    ("chaos", "--requests 6 --guests 2 --fault-rate 0.15", false);
    ("chaos_default", "", false);
    ("soak", "--ops 2000 --shards 2", true);
    ("soak_100k", "--ops 100k", false);
    ("soak_200k", "--ops 200k --fault-rate 0.1", false);
    ("soak_200k_shards4", "--ops 200k --shards 4 --fault-rate 0.1", false);
    ("slo", "--arrivals 4", true);
    ("slo_obs", "--arrivals 4 --obs", false);
    ("density", "--vms 8 --jobs 4 --fault-rate 0.05 --check", true);
    ("density_64", "--vms 64", true);
    ("partition", "--jobs 8 --check", true);
    ("partition_200", "--jobs 200 --check", true);
    ("scenario", "--requests 6 --warmup 2 --guests 2", true);
    ("scenario_obs", "--requests 6 --warmup 2 --guests 2 --obs", true);
    ("trace", "--last 20", false) ]

(* "" leaves both variables unset. *)
let settings =
  [ ""; "MININOVA_FASTPATH=0"; "MININOVA_DOMAINS=1"; "MININOVA_DOMAINS=2";
    "MININOVA_DOMAINS=4" ]

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
  let experiment = List.hd (String.split_on_char '_' name) in
  match Experiment.command Experiment.registry (experiment :: argv) with
  | Ok { Experiment.runs = [ (_, run) ]; _ } -> strip (run ()).Experiment.json
  | Ok _ | Error _ -> failwith ("bad fingerprint flags for " ^ name)

(* NAME's document under the current environment. *)
let document name =
  let _, flags, smp = List.find (fun (n, _, _) -> n = name) rows in
  let argv = List.filter (( <> ) "") (String.split_on_char ' ' flags) in
  String.concat ""
    (List.map
       (fun pcpus ->
          Printf.sprintf "# %s --pcpus %d\n%s\n" name pcpus
            (Json_out.to_string
               (fingerprint name
                  (if smp then argv @ [ "--pcpus"; string_of_int pcpus ]
                   else argv))))
       (if smp then [ 1; 4 ] else [ 1 ]))

(* Start a child taking NAME's document under [setting]; the returned
   function waits for it. *)
let spawn name setting =
  let ours kv =
    String.starts_with ~prefix:"MININOVA_FASTPATH=" kv
    || String.starts_with ~prefix:"MININOVA_DOMAINS=" kv
  in
  let env =
    List.filter (fun kv -> not (ours kv)) (Array.to_list (Unix.environment ()))
    @ if setting = "" then [] else [ setting ]
  in
  let out, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; "child"; name |]
      (Array.of_list env) Unix.stdin child_out Unix.stderr
  in
  Unix.close child_out;
  fun () ->
    let doc = In_channel.input_all (Unix.in_channel_of_descr out) in
    Unix.close out;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> doc
    | _ ->
      Printf.eprintf "fingerprint %s: the run under %s failed\n" name
        (if setting = "" then "both unset" else setting);
      exit 1

(* The first line (from 1) where two documents differ, as in each. *)
let first_difference a b =
  let line = function x :: _ -> x | [] -> "(end of document)" in
  let rec go i = function
    | x :: xs, y :: ys when x = y -> go (i + 1) (xs, ys)
    | xs, ys -> (i, line xs, line ys)
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let () =
  match Sys.argv with
  | [| _; "child"; name |] -> print_string (document name)
  | _ ->
    let name = Sys.argv.(1) in
    let docs =
      List.map (fun (s, wait) -> (s, wait ()))
        (List.map (fun s -> (s, spawn name s)) settings)
    in
    let reference = List.assoc "" docs in
    List.iter
      (fun (s, doc) ->
         if doc <> reference then begin
           let line, want, got = first_difference reference doc in
           Printf.eprintf
             "fingerprint %s: under %s, line %d differs from the run with \
              both unset\n  both unset: %s\n  %s: %s\n"
             name s line want s got;
           exit 1
         end)
      docs;
    print_string reference
