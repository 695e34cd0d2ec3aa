(** Discrete-event queue.

    Deadline-ordered queue of callbacks used for asynchronous hardware
    behaviour: PCAP reconfiguration completion, DMA completion, timer
    expiry. Events scheduled for the same deadline fire in insertion
    order (FIFO), which keeps runs deterministic. *)

type t

type id
(** Handle on a scheduled event, usable to cancel it. *)

val create : Clock.t -> t
(** A queue bound to a clock; deadlines are absolute times on it. *)

val now : t -> Cycles.t
(** Current time on the bound clock (convenience for devices that hold
    the queue but not the clock). *)

val schedule_at : t -> Cycles.t -> (unit -> unit) -> id
(** [schedule_at q t f] runs [f] when the queue is drained past absolute
    time [t]. A deadline already in the past fires at the next drain. *)

val schedule_after : t -> Cycles.t -> (unit -> unit) -> id
(** [schedule_after q d f] is [schedule_at q (now + d)]. *)

val cancel : t -> id -> unit
(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op. *)

val next_deadline : t -> Cycles.t option
(** Deadline of the earliest pending event, if any. *)

val run_due : t -> int
(** Fire, in deadline order, every event whose deadline is [<= now] on
    the bound clock; returns how many fired. Callbacks may schedule
    further events; those are honoured in the same drain if already
    due. The clock is not advanced. *)

val advance_until : t -> Cycles.t -> int
(** [advance_until q t] repeatedly advances the clock to each pending
    deadline [<= t] and fires it, finally leaving the clock at [t].
    Returns the number of events fired. Used when the CPU is idle and
    simulated time must skip forward. *)

val pending : t -> int
(** Number of scheduled, uncancelled, unfired events. *)

val self_check : t -> string list
(** Structural invariants, for the kernel invariant plane: every heap
    entry is in exactly one of the pending/cancelled tables, ids are
    unique in the heap, and neither table holds an id with no heap
    entry (a cancel-after-fire bug would leave such a tombstone).
    Returns one message per violation; [[]] when consistent. A clean
    queue is proved clean without allocating (every heap entry stamps
    its table entry once, and the heap is as long as both tables);
    only a failed proof runs the walk that writes the messages. *)
