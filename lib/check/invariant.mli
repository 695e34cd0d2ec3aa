(** Kernel invariant plane: pure checkers over kernel and platform
    state.

    Like the observability plane ([lib/obs]), the invariant plane is
    zero-cost and cycle-identical when off: nothing is evaluated until
    {!attach_smp} installs the kernels' check hooks, and no checker
    advances a clock or charges cache or memory traffic (the event-queue
    and vGIC clean-path proofs write only their own sweep stamps), so
    runs with checking on are cycle-identical to runs with it off.

    The nine checkers:

    - {e sched} — ring integrity (links, levels, node table, count)
      plus the state agreement: a guest PD is Runnable iff enqueued,
      and the service PD is never enqueued.
    - {e virq_conservation} — per live PD, the vGIC structural check
      and the counter identity latched = raised − delivered −
      reclaimed.
    - {e asid_accounting} — each tag a live guest holds is held by
      that PD in {!Kmem.asids} (so no tag has two holders), the pool's
      live count = tags held, and no guest carries a reserved tag
      (over-committed PDs carry the sentinel 0 until the kernel steals
      a tag for them).
    - {e window_accounting} — each live guest's physical window (and
      save-area slot) is held by that PD in {!Kernel.windows}, and
      the pool's live count = live guests.
    - {e ring_conservation} — ABI v2 descriptor accounting: enqueued =
      completed + reclaimed-on-kill + in-flight over live rings, every
      ring belongs to a live PD, and in-flight fits the ring.
    - {e frame_accounting} — allocator live bytes = kernel table +
      live guest tables + retired-table bytes (a kill must return its
      translation-table frames; nothing may be freed twice).
    - {e event_queue} — heap entries are exactly the pending ∪
      cancelled ids, no duplicates, no orphan tombstones (a
      cancel-after-fire bug leaves one).
    - {e prr_ownership} — HTM row assignment, PD interface mappings,
      hwMMU windows and the actual page-table words all agree, in both
      directions.
    - {e mmu_context} — when a guest is current, TTBR/ASID point at
      it and the DACR encodes its guest mode (paper Table II). *)

type violation = {
  checker : string;   (** which checker fired, e.g. ["prr_ownership"] *)
  boundary : string;  (** where it was caught: "world_switch", … *)
  detail : string;
}

exception Violation of violation

val violation_to_string : violation -> string

val check : Kernel.t -> boundary:string -> violation list
(** Run every checker; [[]] on a consistent kernel. Pure. *)

val raise_first : Kernel.t -> boundary:string -> unit
(** @raise Violation on the first problem found. *)

(** {2 SMP (multi-pCPU) plane}

    Three more checkers over an {!Smp.t} complex, on top of running
    #1–#9 on every node (violation checker names gain a ["cpuN/"]
    prefix; the per-CPU frame and ASID views are audited per node by
    construction, since each pCPU has its own [Kmem]):

    - {e smp_partition} — the placement directory and the per-node PD
      tables agree exactly (every directory entry is live on its node,
      every live guest is in the directory under its own cpu — which
      also rules out a PD living on two nodes).
    - {e ipi_conservation} — IPIs posted = delivered + dropped, and
      every outbox is empty at a barrier boundary.
    - {e shootdown_completion} — ASID shootdowns completed = posted ×
      (pcpus − 1). *)

val check_smp : Smp.t -> boundary:string -> violation list
(** At one pCPU exactly {!check} on kernel 0: no ["cpu0/"] prefix and
    no cross-CPU checkers. *)

val raise_first_smp : Smp.t -> boundary:string -> unit
(** At one pCPU exactly {!raise_first} on kernel 0. *)

val attach_smp : Smp.t -> unit
(** Install {!raise_first} as every node's kernel check hook, run at
    each world-switch, kill and recovery boundary (those hooks run on
    whichever domain simulates the node — they read only node-local
    state; the exception propagates out of [Kernel.run], since hooks
    run outside guest fibers), plus {!raise_first_smp} as the barrier
    hook (boundary ["epoch_barrier"], orchestrator domain). At one pCPU
    exactly kernel 0's hook: no barrier hook. *)
