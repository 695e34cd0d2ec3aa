(** The one JSON writer every report shares: string escaping, the
    float format all artifacts use, and a small value type with an
    indenting printer for experiment documents. *)

val escape : Buffer.t -> string -> unit
(** Append [s] with double quotes, backslashes, newlines and other
    control characters escaped (no surrounding quotes). *)

val float : float -> string
(** Integral values below 1e15 as [%.1f] (3.0), everything else as
    [%.6g]. *)

type t =
  | Int of int
  | Float of float  (** rendered with {!float} *)
  | Str of string
  | Bool of bool
  | Null
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** pre-rendered JSON, emitted verbatim *)

val raw : (Buffer.t -> 'a -> unit) -> 'a -> t
(** Capture a buffer writer's output as a {!Raw} value. *)

val write : Buffer.t -> t -> unit
(** Containers holding only scalars print on one line; any other
    container puts each element on its own line, indented by two
    spaces per level. *)

val to_string : t -> string
