(** The one JSON writer every report shares: a small value type and
    an indenting printer for experiment documents. *)

type t =
  | Int of int
  | Float of float
      (** integral values below 1e15 as [%.1f] (3.0), everything else
          as [%.6g] *)
  | Str of string
      (** quotes, backslashes, newlines and other control characters
          escaped *)
  | Bool of bool
  | Null
  | List of t list
  | Obj of (string * t) list
  | Line of t
      (** the subtree on one line, nested containers included: a
          record per line inside a long document *)

val to_string : t -> string
(** Containers holding only scalars and {!Line}s print on one line,
    elements separated by [", "]; any other container puts each
    element on its own line, indented by two spaces per level. *)
