(** Mutable table keyed by [int]: the one table type behind every
    int-keyed lookup on the kernel's trap path (PD, runtime and ring
    tables, event queue, scheduler, vGIC, SMP directory, hardware task
    manager) and a µC/OS guest's IRQ handler table.

    Open addressing over flat arrays with a multiplicative hash: a
    lookup is a multiply, a shift and a short probe with no C call and
    no closure, and [replace] of a present key, [mem], [find] and
    [remove] allocate nothing. Each key has at most one binding.

    Lookups ([mem], [find], [find_opt], [length], [fold], [iter]) write
    nothing, so one table may be read from several domains at once as
    long as none writes it meanwhile. [remove] drops the table's
    reference to the value.

    Order: [iter] and [fold] visit every binding once, in slot order.
    That order is a function of the operations applied since [create]
    alone (the same on every run, host and domain count), but it is
    neither key order nor insertion order, and no output may depend on
    it: a caller that prints or picks by position sorts first. Every
    golden and CI's soak, partition, density and drain documents read
    the same under this order as under the generic [Hashtbl]'s, which
    is the evidence that none does. The table must not be changed
    while [iter] or [fold] runs. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized to hold [n] bindings before it
    first grows. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its binding if there is one. *)

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val remove : 'a t -> int -> unit
(** Unbind the key; no-op if it is unbound. *)

val length : 'a t -> int
(** Number of bindings. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (int -> 'a -> unit) -> 'a t -> unit
