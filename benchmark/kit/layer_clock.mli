(** Exclusive host-time accounting by simulator layer, driven from the
    benchmark's own call sites.

    One clock charges the host time elapsed since the last transition
    to the current label at every transition. {!timed} sets a label on
    entry and restores the caller's label on exit; {!suspend} wraps a
    guest's [pause]/[idle_wait], which hand the CPU to the kernel: the
    label is [kernel] until the guest resumes, then [guest]. Guests
    interleaving as fibers therefore still sum exactly to the elapsed
    time — every nanosecond between {!start} and {!stop} is charged to
    exactly one label.

    Not domain-safe: trace only single-domain runs. When off, every
    wrapper costs one bool test. *)

type label

val residual : label
(** The benchmark's own loop code inside the timed window. *)

val kernel : label
val guest : label
val workloads : label
val ucos_compute : label
val hyper_request : label
val hyper_doorbell : label
val hyper_other : label
val ring_api : label
val check : label

val all : label list
(** Every label, {!residual} first. *)

val name : label -> string
(** Metric name of the label's exclusive time, e.g. ["kernel.host_s"]. *)

type t

val create : ?now:(unit -> int) -> unit -> t
(** An idle clock. [now] returns nanoseconds from any monotonic origin
    (default: the host monotonic clock); tests inject their own. *)

val start : t -> unit
(** Zero every label and start charging {!residual}. *)

val stop : t -> unit
(** Charge the time up to now and turn the clock off. *)

val timed : t -> label -> (unit -> 'a) -> 'a
(** Run [f] under [label], restoring the caller's label afterwards
    (also when [f] raises). *)

val suspend : t -> (unit -> 'a) -> 'a
(** Run a guest's yield to the kernel: [kernel] while it lasts, [guest]
    once the guest resumes. *)

val ns : t -> label -> int
(** Exclusive nanoseconds charged to [label] since {!start}. *)

val total_ns : t -> int
(** Sum over every label: exactly the time between {!start} and
    {!stop}. *)

val host_now_ns : unit -> int
(** The default monotonic clock. *)
