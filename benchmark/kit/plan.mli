(** Measuring one workload: which instances to run, the self-checks
    across them, and how their values become the reported metrics. *)

type outcome = {
  kind : Workload.kind;
  seed : int;
  size : int;
  workers : int;
  end_to_end : (string * float list) list;
  (** every end-to-end metric with its per-instance values (setup_s:
      one value per set-up sample); empty unless asked for *)
  per_layer : (string * float) list;
  (** every per-layer metric; empty unless asked for *)
  attempted : int;
  failed : int;
}

val measure :
  spawn:(Instance.spec -> Instance.t) -> Workload.kind -> size:int ->
  seed:int -> workers:int -> end_to_end:bool -> per_layer:bool ->
  seconds:float -> min_untraced:int -> (outcome, string list) result
(** End-to-end: run untraced instances at [workers] until [seconds]
    have passed and at least [min_untraced] ran, timing 21 set-up
    samples (each the mean of 5 back-to-back boots) in equal groups
    before the first [min_untraced] of them. Per-layer: one untraced instance at [workers]
    (reused from the end-to-end ones when there are some), one untraced
    and one traced instance at one worker. [Error] lists every failed
    self-check: an instance error, or a simulated fingerprint that
    differs across repeats, traced and untraced runs, or worker
    counts. *)

val value : outcome -> string -> float
(** Reported value: the median for end-to-end metrics. *)

val print : Format.formatter -> outcome -> unit
(** Every measured metric by name with unit (end-to-end with median,
    quartiles and k), and the layer table as shares of traced wall. *)

val to_json : outcome -> Json.t
