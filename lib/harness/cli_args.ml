type 'a spec = {
  names : string list;
  docv : string;
  doc : string;
  default : 'a;
  parse : string -> ('a, string) result;
}

type flag = {
  f_names : string list;
  f_doc : string;
}

let int_in lo hi s =
  match int_of_string_opt s with
  | Some v when v >= lo && v <= hi -> Ok v
  | Some _ | None when lo = min_int ->
    Error (Printf.sprintf "expected an integer, got %S" s)
  | Some _ | None when hi = max_int ->
    Error (Printf.sprintf "expected an integer >= %d, got %S" lo s)
  | Some _ | None ->
    Error (Printf.sprintf "expected an integer in [%d, %d], got %S" lo hi s)

let int ?(docv = "N") ?(min = min_int) ?(max = max_int) names doc default =
  { names; docv; doc; default; parse = int_in min max }

(* A finite number [ok] accepts; [what] names the accepted range. *)
let float ~docv ~what ok names doc default =
  { names; docv; doc; default;
    parse =
      (fun s ->
         match float_of_string_opt s with
         | Some v when Float.is_finite v && ok v -> Ok v
         | Some _ | None -> Error (Printf.sprintf "expected %s, got %S" what s))
  }

let requests =
  int ~min:1 [ "r"; "requests" ]
    "Hardware-task requests per guest (T_hw iterations)."
    Scenario.default_config.Scenario.requests_per_guest

let warmup =
  int ~min:0 [ "warmup" ] "Requests discarded as warm-up."
    Scenario.default_config.Scenario.warmup_requests

let quantum =
  float ~docv:"MS" ~what:"a number of milliseconds > 0" (fun q -> q > 0.0)
    [ "q"; "quantum" ]
    "Guest time slice in milliseconds (paper: 33)."
    Scenario.default_config.Scenario.quantum_ms

let seed =
  int ~docv:"SEED" [ "seed" ] "Deterministic scenario seed."
    Scenario.default_config.Scenario.seed

let guests =
  int ~min:0 [ "g"; "guests" ]
    "Number of parallel guest VMs (0: the native run, where an experiment \
     has one)."
    4

let pcpus =
  int ~min:1 ~max:Smp.max_pcpus [ "pcpus" ]
    "Simulated pCPUs, 1 to 8. 1 (default) drives a single kernel exactly \
     as before; N > 1 boots N per-CPU kernels coupled at deterministic \
     epoch barriers and runs them in parallel on OCaml domains \
     (results are bit-identical for any host core count)."
    1

let fault_rate =
  float ~docv:"P" ~what:"a probability in [0, 1]"
    (fun p -> p >= 0.0 && p <= 1.0)
    [ "fault-rate" ]
    "Per-opportunity PL fault probability (0.0 disables the plane)."
    Chaos.default_config.Chaos.fault_rate

let fault_seed =
  int ~docv:"SEED" [ "fault-seed" ]
    "Fault-plane RNG seed (fixed seed = same fault schedule)."
    Chaos.default_config.Chaos.fault_seed

(* Soak counts are large; accept 200k / 1m style suffixes. *)
let parse_count s =
  let len = String.length s in
  if len = 0 then Error "expected a count"
  else
    let mult, body =
      match Char.lowercase_ascii s.[len - 1] with
      | 'k' -> (1_000, String.sub s 0 (len - 1))
      | 'm' -> (1_000_000, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt body with
    | Some v when v > 0 && v <= max_int / mult -> Ok (v * mult)
    | Some _ | None ->
      Error
        (Printf.sprintf "expected a count like 5000, 200k or 1m, got %S" s)

let ops =
  { names = [ "ops" ];
    docv = "N";
    doc = "Soak operation budget; accepts k/m suffixes (200k, 1m).";
    default = 30_000;
    parse = parse_count }

let some spec =
  { spec with
    default = None;
    parse = (fun s -> Result.map Option.some (spec.parse s)) }

let file names doc =
  { names; docv = "FILE"; doc; default = None;
    parse = (fun s -> Ok (Some s)) }

let assert_ =
  { f_names = [ "assert" ];
    f_doc = "Exit 1 when any of the experiment's claims fails." }

let help = { f_names = [ "help" ]; f_doc = "Show this help." }

let check =
  { f_names = [ "check" ];
    f_doc =
      "Evaluate kernel invariants at every world-switch, kill and \
       recovery boundary (timing is cycle-identical either way)." }

let no_check =
  { f_names = [ "no-check" ];
    f_doc = "Disable invariant evaluation during the soak." }

let observe =
  { f_names = [ "obs" ];
    f_doc =
      "Enable the observability plane (cycle-attributed spans and \
       counters; simulated timings are identical either way)." }

(* --- generic argv engine --- *)

type handler =
  | Flag of (unit -> unit)
  | Value of (string -> (unit, string) result)

type entry = {
  e_names : string list;
  e_docv : string option;
  e_doc : string;
  e_handler : handler;
}

let dashed n = if String.length n = 1 then "-" ^ n else "--" ^ n

let value_ref spec =
  let r = ref spec.default in
  ( r,
    { e_names = spec.names;
      e_docv = Some spec.docv;
      e_doc = spec.doc;
      e_handler =
        Value (fun s -> Result.map (fun v -> r := v) (spec.parse s)) } )

let flag_ref fl =
  let r = ref false in
  (r, { e_names = fl.f_names; e_docv = None; e_doc = fl.f_doc;
        e_handler = Flag (fun () -> r := true) })

let split_inline arg =
  match String.index_opt arg '=' with
  | Some i ->
    (String.sub arg 0 i,
     Some (String.sub arg (i + 1) (String.length arg - i - 1)))
  | None -> (arg, None)

(* Several entries may share a name (experiments reading the same
   flag, each with its own default): every one of them sees it. *)
let parse entries argv =
  let rec go pos = function
    | [] -> Ok (List.rev pos)
    | arg :: rest when String.length arg > 1 && arg.[0] = '-' -> (
      let key, inline = split_inline arg in
      let es =
        List.filter (fun e -> List.exists (fun n -> dashed n = key) e.e_names)
          entries
      in
      match (es, inline, rest) with
      | [], _, _ -> Error (Printf.sprintf "unknown flag %s" key)
      | { e_handler = Flag _; _ } :: _, Some _, _ ->
        Error (Printf.sprintf "%s does not take a value" key)
      | { e_handler = Flag _; _ } :: _, None, _ ->
        List.iter
          (fun e -> match e.e_handler with Flag f -> f () | Value _ -> ())
          es;
        go pos rest
      | _, None, [] -> Error (Printf.sprintf "%s needs a value" key)
      | _, Some s, rest | _, None, s :: rest ->
        let rec feed = function
          | [] -> go pos rest
          | { e_handler = Value v; _ } :: es -> (
            match v s with
            | Ok () -> feed es
            | Error m -> Error (Printf.sprintf "%s: %s" key m))
          | { e_handler = Flag _; _ } :: es -> feed es
        in
        feed es)
    | arg :: rest -> go (arg :: pos) rest
  in
  go [] argv

let pp_usage ppf entries =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun e ->
       if not (Hashtbl.mem seen e.e_names) then begin
         Hashtbl.add seen e.e_names ();
         let lhs =
           String.concat ", " (List.map dashed e.e_names)
           ^ match e.e_docv with Some d -> " " ^ d | None -> ""
         in
         Format.fprintf ppf "  %-28s %s@." lhs e.e_doc
       end)
    entries
