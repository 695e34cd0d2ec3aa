(** The memory management unit: TLB-backed, fault-raising translation.

    Combines the current TTBR/ASID/DACR state with the hardware walker
    ({!Page_table.walk}) and the ASID-tagged {!Tlb}. Every translation
    charges realistic cost: a TLB hit is free (folded into the access),
    a miss performs up to two descriptor reads through the cache
    hierarchy — which is precisely how VM count degrades latency in the
    paper's Table III. *)

type access = Exec | Read | Write

type fault =
  | Translation_fault of Addr.t       (** no mapping for the address *)
  | Domain_fault of Addr.t * int      (** DACR field is No_access *)
  | Permission_fault of Addr.t        (** AP bits forbid this access *)

exception Fault of fault
(** Raised by {!translate_exn}; the kernel's ABT path catches it. *)

type t

val create : Phys_mem.t -> Hierarchy.t -> Tlb.t -> t

val set_ttbr : t -> Addr.t -> unit
(** Load the translation table base (a {!Page_table.root} value). *)

val ttbr : t -> Addr.t

val set_asid : t -> int -> unit
(** Load the current ASID (0–255). The paper gives each VM a unique
    ASID so switches need no TLB flush. *)

val asid : t -> int

val dacr : t -> Dacr.t
(** The live DACR register; the kernel mutates it directly. *)

val translate : t -> access -> priv:bool -> Addr.t ->
  (Addr.t, fault) result
(** Resolve a virtual address under the current TTBR/ASID/DACR at the
    given privilege. Charges walk cost on TLB miss and installs the
    translation in the TLB on success. *)

val translate_exn : t -> access -> priv:bool -> Addr.t -> Addr.t
(** Like {!translate} but raises {!Fault}. *)

val tlb : t -> Tlb.t
