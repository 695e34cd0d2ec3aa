(** Streaming summary statistics (Welford's algorithm).

    Collects the per-path latency samples behind Table III: count, mean,
    min/max, standard deviation, without storing samples. *)

type t

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** Record one sample. *)

val clear : t -> unit
(** Drop all samples in place (the accumulator identity survives, so
    cached handles keep working across a reset). *)

val count : t -> int
val mean : t -> float
(** Mean of samples; 0 if empty. *)

val min : t -> float
(** Smallest sample; [nan] if empty. *)

val max : t -> float
(** Largest sample; [nan] if empty. *)

val stddev : t -> float
(** Sample standard deviation; 0 with fewer than two samples. *)

val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)
