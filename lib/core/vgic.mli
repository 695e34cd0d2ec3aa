(** Virtual Generic Interrupt Controller (paper Fig 2).

    One per virtual machine. Keeps the per-source virtual state
    (registered / enabled / pending), the guest's IRQ entry address,
    and the arrival-ordered queue of pending virtual interrupts. The
    kernel sets sources pending when physical interrupts are routed to
    this VM; the VM drains them at its next pause boundary ("if the
    IRQ occurs when the VM is not active, the IRQ state remains until
    the next time the VM is scheduled"). *)

type t

val create : owner:int -> t
(** [owner] is the PD id, kept for diagnostics. *)

val register : t -> int -> unit
(** Add a physical source id to the VM's vIRQ list (disabled). *)

val registered : t -> int -> bool

val enable : t -> int -> unit
(** Guest-side unmask (via the IRQ hypercalls).
    @raise Invalid_argument if the source was never registered. *)

val disable : t -> int -> unit

val set_entry : t -> Addr.t -> unit
(** Record the guest's IRQ handler entry address. *)

val set_pending : t -> int -> unit
(** Kernel-side injection. Pending on an unregistered or disabled
    source is latched and delivered once enabled. *)

val clear_pending : t -> int
(** Discard every pending virtual interrupt (kill-path reclamation:
    a dead VM must not hold latched vIRQs). Returns how many latched
    interrupts were discarded — sources actually pending, not raw
    arrival-queue entries; registrations and enables are kept. *)

val drain : t -> int list
(** Pending {e and} enabled sources in arrival order; clears their
    pending state. Disabled pending sources stay latched. *)

val has_deliverable : t -> bool
(** True when {!drain} would return a non-empty list. *)

val enabled_sources : t -> int list
(** Enabled physical ids, ascending — what the kernel unmasks in the
    GIC when switching this VM in. *)

(** {2 Conservation accounting (invariant plane)}

    Lifetime counters: every latch transition is {e raised}, every
    {!drain} delivery is {e delivered}, every discard by
    {!clear_pending} is {e reclaimed} — so at any
    quiescent point [latched = raised - delivered - reclaimed]. *)

val raised : t -> int
val delivered : t -> int
val reclaimed : t -> int

val latched : t -> int
(** Sources currently pending. *)

val self_check : t -> string list
(** Structural + conservation invariants: the arrival queue holds
    exactly the pending sources (no duplicates, no stale or missing
    entries) and the counter identity above holds. One message per
    violation; [[]] when consistent. A clean vGIC is proved clean
    without building a table (every queued irq stamps a distinct
    pending source, and the queue is as long as the pending count);
    only a failed proof runs the walk that writes the messages. *)
