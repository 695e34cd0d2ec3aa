(** Hash table keyed by [int]: the one table type behind every
    int-keyed lookup on the kernel's trap path (PD, runtime and ring
    tables, event queue, scheduler, vGIC, SMP directory, hardware task
    manager) and a µC/OS guest's IRQ handler table.

    Keys compare with [Int.equal] instead of the polymorphic compare.
    The hash is [Hashtbl.hash] and the bucket policy is the standard
    library's, so a table holds its bindings in exactly the bucket
    order of a generic [(int, 'a) Hashtbl.t] fed the same operations:
    [iter] and [fold] visit them in the same order. *)

include Hashtbl.S with type key = int
