(** Domain Access Control Register.

    Sixteen 2-bit fields, one per memory domain. The microkernel
    switches this register to flip guest-kernel pages between
    protected and accessible as the guest changes privilege level
    (paper Table II) — cheaper than editing page tables. *)

type access =
  | No_access (** any access faults, regardless of page permissions *)
  | Client    (** page AP bits are checked *)
  | Manager   (** access is not checked at all *)

type t
(** Mutable register value. *)

val create : unit -> t
(** All domains [No_access]. *)

val set : t -> int -> access -> unit
(** [set d dom a] programs domain [dom] (0–15). *)

val set_all : t -> access -> unit
(** [set_all d a] programs all sixteen domains to [a] at once. *)

val get : t -> int -> access

val to_word : t -> int
(** Encode as the 32-bit register value (2 bits per domain:
    00=NA, 01=Client, 11=Manager). *)
