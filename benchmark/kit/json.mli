(** The JSON subset the benchmark writes and reads back: its result
    line, child-to-parent instance records and result files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, one line. Integral numbers print without a fraction,
    others with all 17 significant digits. Non-finite numbers print as
    [null]. *)

val of_string : string -> (t, string) result

val member : string -> t -> t
(** Field of an object ([Null] when absent or not an object). *)

val to_float : t -> float
(** [Num] value; [nan] otherwise. *)

val to_str : t -> string
(** [Str] value; [""] otherwise. *)

val to_list : t -> t list
(** [Arr] elements; [[]] otherwise. *)
