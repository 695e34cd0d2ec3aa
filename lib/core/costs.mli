(** Pipeline-cycle calibration constants.

    Every kernel path's cost is (footprint memory behaviour, charged by
    {!Exec}) + (a base pipeline cycle count listed here). The memory
    part moves with cache/TLB state; these constants are the fixed
    part, calibrated so the 1-guest configuration lands near the
    paper's Table III values on a 660 MHz clock. EXPERIMENTS.md records
    paper-vs-measured for the result of this calibration. *)

val hypercall_entry : int
(** SVC exception entry + argument marshalling. *)

val hypercall_exit : int

val hypercall_handler : int
(** Generic small-handler work (cache op bookkeeping, vGIC update…). *)

val vm_switch_active : int
(** Active part of a vCPU switch: GP registers, timer, CP15 (Table I). *)

val vfp_switch : int
(** Lazy part: 32 double VFP registers + control, when actually
    switched. *)

val irq_route : int
(** GIC ack + source routing + EOI write. *)

val vgic_inject : int
(** Marking a vIRQ pending and preparing guest entry. *)

val sched_pick : int

val pt_update : int
(** One guest page-table map/unmap performed by the kernel, including
    the TLB maintenance for the touched page. *)

val dacr_write : int
val ttbr_asid_write : int

val mgr_entry : int
(** Hardware Task Manager portal: dispatch into the service PD. *)

val mgr_exit : int

val mgr_exec_base : int
(** Fixed part of the manager's allocation routine (table scans, PRR
    selection, bookkeeping) — dominates the ~15 µs execution cost. *)

val mgr_exec_per_prr : int
(** Added per PRR examined during selection. *)

val mgr_reconfig_launch : int
(** Preparing and starting a PCAP transfer (not the transfer itself,
    which is overlapped — Fig 7 stage 5). *)

val mgr_reclaim : int
(** Consistency work when stealing a PRR from another client: saving
    the register group, setting the state flag, demapping. *)

val und_decode : int
(** Trap-and-emulate: fetching and decoding the trapped instruction. *)

val ipc_per_word : int
val uart_per_byte : int

val ring_setup : int
(** [Ring_setup] bookkeeping beyond the stub: validating the request
    and initialising both ring headers. *)

val ring_desc_validate : int
(** Per-descriptor decode and validation during a doorbell drain. *)

val ring_cqe_write : int
(** Formatting one completion entry. *)

val asid_steal : int
(** Revoking an ASID from an over-committed idle PD: bookkeeping plus
    the TLB flush-by-ASID broadcast. *)

val ipi_send : int
(** Posting a cross-pCPU IPI: writing the message slot + the GIC SGI
    register write. *)

val ipi_receive : int
(** Taking a cross-pCPU IPI: IRQ entry on the target + message decode
    and dispatch. *)

val tlb_shootdown : int
(** Applying a remote ASID shootdown on the receiving pCPU, on top of
    the IPI receive itself. *)

val vm_migrate : int
(** Idle-balance migration of a not-yet-started vCPU between pCPU run
    queues: dequeue, descriptor hand-off, enqueue. Charged once per
    side by the SMP orchestrator. *)

