(** The Zynq-7000 physical address map used by the simulation.

    Mirrors the regions relevant to the paper (UG585 + paper Fig 4):
    DDR for kernel/guests/bitstreams, OCM, the AXI_GP window through
    which PRR register groups are reached, and the PS peripheral block
    (GIC, private timer, DevCfg/PCAP, UART, SD). *)

val ddr_base : Addr.t
val ddr_size : int
(** 512 MB of DDR at [0x0010_0000] (first MB reserved, as on Zynq). *)

val ddr_high_base : Addr.t
val ddr_high_size : int
(** Second DDR bank at 4 GB holding the guest windows beyond the low
    bank's 29 slots. Reached through the extended physical base bits
    of {!Pte} descriptors; clear of every peripheral window. *)

val kernel_heap_base : Addr.t
val kernel_heap_size : int
(** Frame-allocator overflow region directly above the low DDR bank
    (below 4 GB so L2 table bases still encode in 32 bits): kernel
    page tables for fleet-scale guest populations spill here once the
    in-image heap is full. *)

val ocm_base : Addr.t
val ocm_size : int
(** 256 KB on-chip memory at [0xFFFC_0000]. *)

val axi_gp0_base : Addr.t
val axi_gp0_size : int
(** PL register window (M_AXI_GP0): [0x4000_0000], 1 GB slot of which
    we decode the first 16 MB for PRR register groups. *)

val prr_regs_base : Addr.t
(** Base of the PRR register groups inside the GP0 window. Each PRR's
    group occupies the start of its own 4 KB page ([prr_regs_stride]),
    so a single small-page mapping exposes exactly one PRR (paper
    §IV-C). *)

val prr_regs_stride : int
(** 4096. *)

val gic_dist_base : Addr.t
val gic_cpu_base : Addr.t
(** GIC distributor / CPU-interface register banks. *)

val private_timer_base : Addr.t
val devcfg_base : Addr.t
(** DevCfg block: the PCAP control/status registers. *)

val uart0_base : Addr.t
val sd0_base : Addr.t

val kernel_code_base : Addr.t
val kernel_code_size : int
(** Physical home of the microkernel image (code+rodata), inside DDR. *)

val kernel_data_base : Addr.t
val kernel_data_size : int
(** Microkernel data, stacks and kernel objects. *)

val bitstream_store_base : Addr.t
val bitstream_store_size : int
(** DDR region holding the hardware-task .bit files, mapped exclusively
    to the Hardware Task Manager (paper §IV-B). *)

val guest_phys_base : int -> Addr.t
(** [guest_phys_base i] is the base of guest [i]'s contiguous physical
    memory allotment. *)

val guest_phys_size : int
(** 16 MB per guest. *)

val low_guest_slots : int
(** Windows that fit in the low DDR bank (29), at their historical
    addresses. *)

val guest_slot_count : int
(** Guest physical windows provisioned across both banks (256) — the
    bound on {e concurrently} live VMs; the kernel recycles windows of
    dead VMs. *)
