(** Native (non-virtualized) deployment — the baseline of Table III.

    µC/OS-II runs alone, privileged, on the platform: the OS tick is
    the physical private timer, interrupts are taken straight from the
    GIC, and the Hardware Task Manager is "implemented as a uCOS-II
    function" (paper §V-B): called directly, in the unified address
    space, with no page-table updates — which is why the native entry,
    exit and PL-IRQ-entry rows of Table III are zero. *)

type system

val create : unit -> system
(** Build a board, the native address space (the standard guest layout
    backed by guest slot 0, plus privileged identity maps of the
    kernel regions and the PL window), and a local Hardware Task
    Manager. *)

val zynq : system -> Zynq.t
val hwtm : system -> Hw_task_manager.t

val port : system -> Port.t
(** The native port: hand this to {!Ucos.create}. *)

val register_hw_task : system -> Task_kind.t -> Bitstream.id

val run : system -> (Port.t -> unit) -> unit
(** Execute [main] (typically: build a {!Ucos.t} and [Ucos.run] it).
    No hypervisor is involved; this is plain function call. *)
