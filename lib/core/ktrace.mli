(** Kernel event tracing.

    A bounded ring of timestamped structured events, cheap enough to
    leave on during experiments. Events are open records — a
    [category] (which subsystem), a [name] (which event), a
    [severity], and a typed field list — so new subsystems add events
    without editing a central variant. The [trace] experiment prints
    the ring with {!pp_event} (one JSON string per event in its
    document); the tests use it to check event ordering (e.g. a
    hypercall is always bracketed by the VM that issued it being
    current). *)

type severity = Debug | Info | Warn | Error

(** Typed field payload: everything the kernel traces is an int, a
    string or a bool. *)
type value = Int of int | Str of string | Bool of bool

type event = {
  at : Cycles.t;
  category : string;  (** subsystem: "sched", "hyper", "irq", "hwtm",
                          "fault", "mark", … *)
  name : string;      (** event within the category: "vm-switch", … *)
  severity : severity;
  fields : (string * value) list;
}

type t

val create : capacity:int -> t
(** Keep at most [capacity] most-recent events.
    @raise Invalid_argument if capacity <= 0. *)

val record :
  t -> Cycles.t -> ?severity:severity -> category:string -> name:string ->
  (string * value) list -> unit
(** Append an event (default severity {!Info}). The ring has
    {e overwrite-oldest} semantics: a record on a full ring evicts the
    oldest retained event — the new event is always kept — and the
    eviction is counted in {!dropped}. *)

val events : t -> event list
(** Oldest first (at most [capacity]); the most recent [capacity]
    events recorded. *)

val count : t -> category:string -> ?name:string -> unit -> int
(** Retained events of one category (and name, when given). *)

val dropped : t -> int
(** Number of old events overwritten since creation (total recorded =
    [List.length (events t) + dropped t]). *)

val pp_event : Format.formatter -> event -> unit
(** One line: [  12.345 ms  sched/vm-switch  to=2]. *)
