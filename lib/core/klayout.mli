(** Kernel image layout — virtual (= physical, identity-mapped)
    addresses of every kernel code path and data object whose memory
    behaviour the simulation charges.

    Each exported pair is [(base, bytes)]: the code range whose
    instruction fetches the {!Exec} engine pushes through the I-cache
    when that path runs. Distinct paths live on distinct cache lines,
    so a path evicted by guest activity pays real misses on its next
    run — this is what makes the Table III trends emerge. *)

type range = Addr.t * int

(** {2 Exception stubs} *)

val svc_entry : range
(** SVC (hypercall) entry stub. *)

val svc_exit : range

val irq_entry : range
(** IRQ exception prologue. *)

val und_entry : range
(** Undefined-instruction trap entry. *)

(** {2 Kernel services} *)

val hyper_dispatch : range
(** Portal lookup + dispatch table. *)

val handler : int -> range
(** [handler n] is the code block of hypercall ABI number [n]. *)

val vgic_inject : range
val vm_switch : range
val sched_pick : range

val trap_decode : range
(** Trap-and-emulate decoder. *)

val ipc_copy : range

val ring_setup_stub : range
(** ABI v2 [Ring_setup]: ring-page initialisation. *)

val ring_drain_stub : range
(** ABI v2 doorbell drain loop: header reads + per-descriptor fetch. *)

val ring_complete_stub : range
(** ABI v2 completion writer: CQE stores + header write-back. *)

val ipi_send_stub : range
(** SMP: cross-pCPU IPI post trampoline. *)

val ipi_recv_stub : range
(** SMP: IPI receive + message dispatch. *)

val shootdown_stub : range
(** SMP: remote ASID-tagged TLB shootdown handler. *)

(** {2 Hardware Task Manager service (its own address space)} *)

val mgr_entry_stub : range
val mgr_exit_stub : range

val mgr_main : range
(** Allocation routine code. *)

val mgr_task_table : range
(** Hardware task table (data). *)

val mgr_prr_table : range
(** PRR table (data). *)

val mgr_stack : range

(** {2 Kernel data} *)

val pd_table : range
(** Protection-domain descriptors. *)

val vcpu_save_area : int -> range
(** Per-PD register save block (512 B each: active set at +0, lazy
    VFP bank at +96), indexed by PD id. *)
