(** How fast the host runs, measured next to a measurement, so that a
    CPU time taken on a loaded shared host can be rescaled to the speed
    of the same host when quiet. *)

val cpu_now : unit -> float
(** User + system CPU seconds of this process, all domains. *)

type t
(** The reference slices timed during one measurement. *)

val none : t
(** No slices: {!speed} is 1 and {!slice_cpu} 0. *)

val sampled : (unit -> 'a) -> 'a * t
(** [sampled f] runs [f], timing one reference slice before and after it
    and one from a [SIGPROF] handler after every 0.1 s of process CPU
    time inside it. The previous [SIGPROF] handler is restored. *)

val slice_cpu : t -> float
(** CPU seconds the slices took; subtract it from a CPU time taken
    around {!sampled}. *)

val speed : t -> float
(** The slice's quiet time over its mean measured time: 1 on the quiet
    development host, below 1 on a slower or loaded one. *)
