(** Virtual CPU: the per-VM hardware state block (paper Table I).

    Holds what Mini-NOVA saves/restores when switching VMs, split into
    the {e actively} switched set (general-purpose registers, platform
    timer, CP15, GIC state — switched on every VM switch) and the
    {e lazily} switched set (VFP bank, L2 control registers — switched
    only when the next owner actually touches them). Register contents
    themselves are not simulated; the save area's memory traffic and
    switch costs are. *)

type t

val create : pd_id:int -> ?slot:int -> unit -> t
(** [slot] selects which {!Klayout.vcpu_save_area} backs this vCPU
    (default: the PD id). The kernel recycles slots of dead VMs, so a
    long-running system's monotonically growing PD ids stay decoupled
    from the finite save-area region. *)

val slot : t -> int
(** Save-area slot index (for recycling at VM teardown). *)

val save_area : t -> Addr.t * int
(** Kernel-memory block written on save / read on restore. *)

val guest_mode : t -> Hyper.guest_mode
val set_guest_mode : t -> Hyper.guest_mode -> unit

val uses_vfp : t -> bool
(** Whether this guest's workload touches the VFP at all. *)

val set_uses_vfp : t -> bool -> unit

val l2ctrl : t -> int
(** Shadowed L2 cache control register (lazily switched). *)

val set_l2ctrl : t -> int -> unit

val save_fp : t -> Exec.t
(** The active-set save: vm-switch code + stores to the save area, run
    in kernel context (global mappings). Exposed so the kernel can
    intern it as a pinned control-path trace (keyed by save-area slot,
    shared across the VMs that recycle the slot). *)

val restore_fp : t -> Exec.t
(** The active-set restore: vm-switch code + loads from the save
    area. *)

val vfp_load_fp : t -> Exec.t
(** A VFP bank switch's first half: vm-switch code, loads of this
    vCPU's bank, the whole switch cost. *)

val vfp_store_fp : t -> Exec.t
(** Its second half: stores to the previous owner's bank. *)
