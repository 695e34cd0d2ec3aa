(** Kernel memory management (paper §III-C).

    Owns the kernel's own translation table, builds each guest's
    address space, performs the privileged page-table edits guests
    request through hypercalls, maps/demaps hardware-task interface
    pages on the Hardware Task Manager's behalf, and implements the
    context-activation sequence (TTBR + ASID + DACR per Table II). *)

(** {2 Memory domains (DACR fields)} *)

val dom_kernel : int
(** 0 — microkernel mappings. *)

val dom_guest_kernel : int
(** 1 — toggled No_access/Client as the guest changes mode. *)

val dom_guest_user : int
(** 2 — always Client. *)

type t

val create : Zynq.t -> t
(** Build the kernel translation table (identity maps of kernel code,
    kernel data, bitstream store, PL register window — all global,
    privileged, domain 0) and activate it. *)

val kernel_pt : t -> Page_table.t
val allocator : t -> Frame_alloc.t

val asids : t -> Id_pool.t
(** The guest tags (kernel holds 0, manager 1, guests 2..255) and the
    PD holding each, read by the invariant plane. *)

val try_alloc_asid : t -> pd:int -> int option
(** A free tag, now held by PD [pd], or [None] when all 254 are held
    (the PD then keeps the sentinel 0 until {!steal_asid}). A recycled
    tag's stale TLB entries are flushed first (host-side, uncharged). *)

val steal_asid : t -> pd:int -> int * int
(** Round-robin from the last steal: the next tag held by a PD other
    than [pd], now held by [pd], and its previous holder. The caller
    resets that PD's tag and charges the flush.
    @raise Failure when no other PD holds a tag. *)

val free_asid : t -> int -> unit
(** Return a dead VM's ASID for recycling (kill-path reclamation).
    @raise Invalid_argument on a tag that is not held. *)

val retire_guest_pt : t -> Page_table.t -> unit
(** Reclaim a dead VM's translation table. If its root is still loaded
    in TTBR the destruction is deferred until the next context
    activation moves TTBR elsewhere; otherwise the frames are freed
    immediately. *)

val retired_bytes : t -> int
(** Allocator bytes still held by retired-but-not-yet-destroyed tables
    (nonzero only between killing the running VM and the next context
    activation). *)

val make_guest_pt : t -> index:int -> Page_table.t
(** Build the {!Guest_layout} address space over guest [index]'s
    physical allotment: kernel globals + guest-kernel sections
    (domain 1) + guest-user sections (domain 2). *)

val activate_manager : t -> asid:int -> unit
(** Enter the Hardware Task Manager's space. *)

val activate_guest : t -> Pd.t -> unit
(** Enter a guest's space; DACR is set from the PD's current guest
    mode (Table II). *)

val set_guest_dacr : t -> Hyper.guest_mode -> unit
(** Flip domain 1 between Client (guest kernel running) and No_access
    (guest user running). Charges the DACR write. *)

val guest_map_page :
  t -> Pd.t -> vaddr:Addr.t -> gphys_off:int -> user:bool ->
  (unit, string) result
(** [Map_insert] hypercall backend: map one 4 KB page of the guest's
    own allotment into its page region. Validates range and alignment;
    charges the table write and TLB maintenance. *)

val guest_unmap_page : t -> Pd.t -> vaddr:Addr.t -> (unit, string) result

val map_iface : t -> Pd.t -> prr_regs_base:Addr.t -> vaddr:Addr.t ->
  (unit, string) result
(** Map a PRR register page into a guest (Fig 7 stage 3). *)

val unmap_iface : t -> Pd.t -> vaddr:Addr.t -> unit
(** Demap a reclaimed PRR interface (consistency path, §IV-C). *)

val guest_translate : t -> Pd.t -> Addr.t -> Addr.t
(** Kernel-side walk of a guest virtual address (charged reads): its
    physical address, or [-1] when it is not mapped. *)
