(** Two-level translation tables stored in simulated physical memory.

    A [t] is a handle on one address space: a 16 KB first-level table
    of 4096 section/table descriptors plus lazily allocated 1 KB
    second-level tables. All updates write real descriptor words into
    {!Mem.Phys_mem}, so the MMU's hardware walker (and nothing else)
    defines what a mapping means — exactly the setup the paper relies
    on when the Hardware Task Manager edits a guest's table to map or
    demap a PRR interface page (§IV-C). *)

type t

val create : Phys_mem.t -> Frame_alloc.t -> t
(** Allocate and zero a fresh 16 KB L1 table. *)

val root : t -> Addr.t
(** Physical base of the L1 table — the value loaded into TTBR. *)

val map_section : t -> virt:Addr.t -> phys:Addr.t -> Pte.attrs -> unit
(** Install a 1 MB section mapping (both addresses 1 MB aligned).
    @raise Invalid_argument on misalignment or if the slot already
    holds an L2 table pointer. *)

val map_page :
  t -> virt:Addr.t -> phys:Addr.t -> domain:int -> ap:Pte.ap ->
  global:bool -> unit
(** Install a 4 KB mapping, allocating the second-level table on first
    use of its 1 MB slot. The [domain] is recorded in the first-level
    descriptor; mapping pages with different domains under one 1 MB
    slot is rejected.
    @raise Invalid_argument on misalignment or a section conflict. *)

val ensure_l2 : t -> virt:Addr.t -> domain:int -> unit
(** Pre-allocate the second-level table covering [virt]'s 1 MB slot
    (guest page-table creation hypercall); no mapping is installed.
    @raise Invalid_argument on a section conflict or domain clash. *)

val unmap_page : t -> virt:Addr.t -> bool
(** Remove a 4 KB mapping; returns false when nothing was mapped. *)

val walk : read:(Addr.t -> int32) -> root:Addr.t -> virt:Addr.t ->
  (Addr.t * Pte.attrs) option
(** Hardware-walker view: resolve [virt] by reading descriptor words
    through [read] (which charges memory-system cost). Returns the
    physical address and attributes, or [None] on a translation fault.
    Static so the MMU can walk any TTBR value, mapped or hostile. *)

val walk_pa : Hierarchy.t -> Phys_mem.t -> root:Addr.t -> virt:Addr.t -> Addr.t
(** The physical address of {!walk}, with every descriptor read
    charged as a data load on the hierarchy, and [-1] for a
    translation fault: the same reads, charges and exceptions, without
    allocating. *)

val l2_tables : t -> int
(** Number of second-level tables allocated (footprint metric). *)

val footprint_bytes : t -> int
(** Bytes of allocator memory this table currently holds: the 16 KB L1
    plus 1 KB per second-level table; 0 after {!destroy}. *)

val destroy : t -> unit
(** Return the L1 table and every second-level table to the frame
    allocator (VM teardown). The handle must not be used afterwards —
    and the table must no longer be reachable through any TTBR.
    Idempotent. *)
