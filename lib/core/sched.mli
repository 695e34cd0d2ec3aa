(** Preemptive priority-based round-robin scheduler (paper §III-D,
    Fig 3).

    PDs at the same priority level sit in a circular doubly-linked
    list and share the CPU round-robin; a higher level always preempts
    lower ones. The run queue holds only runnable PDs — blocking
    removes a PD (the "suspend queue" is the set of PDs not enqueued),
    resuming re-inserts it at the tail of its level. *)

type t

val create : unit -> t

val enqueue : t -> Pd.t -> unit
(** Insert at the tail of the PD's priority ring; no-op if present.
    @raise Invalid_argument on an out-of-range priority. *)

val dequeue : t -> Pd.t -> unit
(** Remove from the run queue; no-op if absent. *)

val contains : t -> Pd.t -> bool

val pick : t -> Pd.t option
(** Highest-priority ring's current head (does not rotate). *)

val rotate : t -> Pd.t -> unit
(** Round-robin step: if [pd] is the head of its ring, advance the
    head to its successor (end-of-quantum behaviour). *)

val count : t -> int
(** Runnable PDs across all levels. *)

val members : t -> Pd.t list
(** Every queued PD in deterministic dispatch order: priority high to
    low, ring order within a level. Work-stealing scans this from the
    back — the PD furthest from running locally is the cheapest to
    migrate. *)

val integrity : t -> string list
(** Structural invariants, for the kernel invariant plane: every ring
    closes within [count] nodes with symmetric links, node priorities
    match their level, ring nodes and the id→node table agree, and the
    total ring population equals [count] and the table size. One
    message per violation; [[]] when consistent. Walks are bounded, so
    this terminates even on a corrupted ring. *)
