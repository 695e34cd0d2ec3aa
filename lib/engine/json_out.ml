let escape b s =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s

let float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | List of t list
  | Obj of (string * t) list
  | Line of t

(* [ind] is the current indent, or [None] on one line. *)
let rec write_at b ind v =
  let add = Buffer.add_string b in
  match v with
  | Int i -> add (string_of_int i)
  | Float f -> add (float f)
  | Str s -> add "\""; escape b s; add "\""
  | Bool x -> add (string_of_bool x)
  | Null -> add "null"
  | Line v -> write_at b None v
  | List l -> container b ind "[" "]" (List.map (fun v -> (None, v)) l)
  | Obj kv -> container b ind "{" "}" (List.map (fun (k, v) -> (Some k, v)) kv)

and container b ind o c items =
  let add = Buffer.add_string b in
  let ind =
    if List.exists (function _, (List _ | Obj _) -> true | _ -> false) items
    then ind
    else None
  in
  add o;
  List.iteri
    (fun i (k, v) ->
       if i > 0 then add ",";
       (match ind with
        | None -> if i > 0 then add " "
        | Some n -> add ("\n" ^ String.make (n + 2) ' '));
       Option.iter (fun k -> add "\""; escape b k; add "\": ") k;
       write_at b (Option.map (( + ) 2) ind) v)
    items;
  Option.iter (fun n -> add ("\n" ^ String.make n ' ')) ind;
  add c

let to_string v =
  let b = Buffer.create 1024 in
  write_at b (Some 0) v;
  Buffer.contents b
