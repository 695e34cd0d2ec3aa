type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type value = Int of int | Str of string | Bool of bool

type event = {
  at : Cycles.t;
  category : string;
  name : string;
  severity : severity;
  fields : (string * value) list;
}

type t = {
  ring : event option array;
  mutable next : int;
  mutable count : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ktrace.create: capacity must be positive";
  { ring = Array.make capacity None; next = 0; count = 0; dropped = 0 }

(* Overwrite-oldest semantics: a record on a full ring evicts the
   oldest event and counts it in [dropped]; the new event is always
   kept. *)
let record t at ?(severity = Info) ~category ~name fields =
  let cap = Array.length t.ring in
  if t.count = cap then
    (* full: the slot at [next] holds the oldest event — evict it *)
    t.dropped <- t.dropped + 1
  else
    t.count <- t.count + 1;
  t.ring.(t.next) <- Some { at; category; name; severity; fields };
  t.next <- (t.next + 1) mod cap

let events t =
  let cap = Array.length t.ring in
  let start = (t.next - t.count + cap) mod cap in
  List.init t.count (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let matches ~category ?name e =
  String.equal e.category category
  && match name with None -> true | Some n -> String.equal e.name n

let count t ~category ?name () =
  List.fold_left
    (fun n e -> if matches ~category ?name e then n + 1 else n)
    0 (events t)

let dropped t = t.dropped

let pp_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b

let pp_event ppf e =
  Format.fprintf ppf "%10.3f ms  %-22s" (Cycles.to_ms e.at)
    (e.category ^ "/" ^ e.name);
  (match e.severity with
   | Info -> ()
   | s -> Format.fprintf ppf " [%s]" (severity_name s));
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v)
    e.fields
