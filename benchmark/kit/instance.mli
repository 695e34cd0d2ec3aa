(** One workload instance: boot, run to guest exhaustion, self-check,
    and measure. The benchmark runs each instance in a fresh child
    process so host time, GC state and peak RSS start from the same
    place every time. *)

type spec = { workers : int; traced : bool }

type t = {
  metrics : (string * float) list;
  (** per-instance values of every metric an instance can measure:
      the end-to-end ones, the untraced per-layer ones, and — when
      traced — the layer host times and simulated component costs *)
  fingerprint : string;
  (** digest of Σ simulated cycles, hypercalls and every guest's
      attempted/ok counts: identical in every valid instance of one
      workload and seed *)
  attempted : int;
  failed : int;
  errors : string list;   (** self-check failures; non-empty = invalid *)
}

val run : Workload.kind -> size:int -> seed:int -> spec -> t
(** Traced instances boot with the observability plane on and charge
    host time through {!Layer_clock}. *)

val setup_seconds :
  Workload.kind -> size:int -> seed:int -> workers:int -> boots:int -> float
(** Host CPU time of one boot + task registration + VM creation,
    averaged over [boots] back-to-back boots. *)

val metric : t -> string -> float
(** @raise Not_found for a metric the instance did not measure. *)

val to_json : t -> Json.t
val of_json : Json.t -> t
