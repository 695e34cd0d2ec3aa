(** A small pool of integer ids and the PD holding each: the one
    allocator behind the guest ASIDs ({!Kmem}) and the guest physical
    windows with their save-area slots ({!Kernel}). {!take} hands back
    the oldest released id first (FIFO), else the next fresh one. *)

type t

val create : first:int -> limit:int -> t
(** Ids [first .. limit - 1], all free. *)

val take : t -> holder:int -> int option
(** An id now held by [holder] ([>= 0]); [None] when all are live. *)

val recycles_next : t -> bool
(** {!take}'s id would be a released one. *)

val release : t -> int -> unit
(** @raise Invalid_argument on an id that is not live. *)

val holder : t -> int -> int
(** The id's holder; [-1] when it is free or outside the pool. *)

val set_holder : t -> int -> int -> unit
(** Hand a live id to another holder (an ASID steal). *)

val live : t -> int
