(** Instrumentation registry.

    Probe holds only what Table III and the ablations read: the
    Hardware Task Manager entry/execution/exit, PL IRQ delivery and VM
    switch samples (cycles, under the labels below) and the
    [fault_kill] and [vfp_switch] event counters. Everything else the
    kernel measures goes to {!Obs} once. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Bump a plain event counter. *)

val sample_handle : t -> string -> Stats.t
(** Find-or-intern the accumulator for a label. Hot paths resolve the
    label once and feed the handle with {!Stats.add} directly; the
    handle survives {!reset} (which clears in place). *)

val stats : t -> string -> Stats.t
(** Aggregate for a label (empty if never recorded). *)

val count : t -> string -> int
(** Value of an event counter (0 if never bumped). *)

val reset : t -> unit
(** Drop all samples and counters (e.g. after warm-up). *)

(** {2 Well-known labels} *)

val hwtm_entry : string
val hwtm_exit : string
val hwtm_exec : string
val pl_irq_entry : string
val vm_switch : string
