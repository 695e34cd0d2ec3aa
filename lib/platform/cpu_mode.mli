(** Cortex-A9 exception costs (paper §III).

    The microkernel executes in SVC (PL1), guests in USR (PL0); the
    other modes receive exception entries — IRQ/FIQ for interrupts,
    UND for privileged-instruction traps, ABT for memory faults. The
    simulator models a mode switch by its pipeline cost only. *)

val exception_entry_cycles : int
(** Pipeline cost of taking an exception: flush, mode switch, vector
    fetch (~20 cycles on the A9). *)

val exception_return_cycles : int
(** Cost of the return-from-exception path. *)
