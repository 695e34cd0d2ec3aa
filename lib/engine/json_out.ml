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
  | Raw of string

let raw f x =
  let b = Buffer.create 1024 in
  f b x;
  Raw (Buffer.contents b)

let rec write_at b ind v =
  let add = Buffer.add_string b in
  match v with
  | Int i -> add (string_of_int i)
  | Float f -> add (float f)
  | Str s -> add "\""; escape b s; add "\""
  | Bool x -> add (string_of_bool x)
  | Null -> add "null"
  | Raw s -> add s
  | List l -> container b ind "[" "]" (List.map (fun v -> (None, v)) l)
  | Obj kv -> container b ind "{" "}" (List.map (fun (k, v) -> (Some k, v)) kv)

and container b ind o c items =
  let add = Buffer.add_string b in
  let flat =
    List.for_all (function _, (List _ | Obj _) -> false | _ -> true) items
  in
  add o;
  List.iteri
    (fun i (k, v) ->
       if i > 0 then add ",";
       if flat then (if i > 0 then add " ")
       else add ("\n" ^ String.make (ind + 2) ' ');
       Option.iter (fun k -> add "\""; escape b k; add "\": ") k;
       write_at b (ind + 2) v)
    items;
  if (not flat) && items <> [] then add ("\n" ^ String.make ind ' ');
  add c

let write b v = write_at b 0 v

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b
