(** Cortex-A9 operating modes (paper §III).

    Six modes over two privilege levels: the microkernel executes in
    SVC (PL1), guests in USR (PL0), and the remaining modes receive
    exception entries — IRQ/FIQ for interrupts, UND for privileged-
    instruction traps, ABT for memory faults. *)

type t = Usr | Svc | Irq | Fiq | Und | Abt

type privilege = Pl0 | Pl1

val is_privileged : t -> bool

val exception_entry_cycles : int
(** Pipeline cost of taking an exception: flush, mode switch, vector
    fetch (~20 cycles on the A9). *)

val exception_return_cycles : int
(** Cost of the return-from-exception path. *)

val name : t -> string
