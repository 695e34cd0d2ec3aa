(** The Mini-NOVA microkernel (paper §III).

    Boots on a {!Zynq.t}, hosts paravirtualized guests as one-shot
    fibers (each VM-exit — hypercall, pause, idle, privileged trap —
    is an effect the kernel handles), and provides the four VMM
    properties: CPU virtualization (vCPU save/restore with lazy VFP
    switching), memory management (per-VM page tables, ASIDs, the DACR
    guest-mode trick), communication (IPC mailboxes with a doorbell
    interrupt), and scheduling (preemptive priority round-robin with
    quantum preservation). The Hardware Task Manager service runs in
    its own protection domain at a priority above the guests and is
    dispatched synchronously on the hardware-task hypercalls. *)

type config = {
  quantum : Cycles.t;
  (** guest time slice; the paper uses 33 ms *)

  vfp_policy : [ `Lazy | `Active ];
  (** [`Lazy] switches the VFP bank only on first use by a new owner
      (Table I); [`Active] saves/restores it on every VM switch
      (ablation A2) *)

  tlb_policy : [ `Asid | `Flush_all ];
  (** [`Asid] relies on ASID tagging across VM switches (§III-C);
      [`Flush_all] flushes the whole TLB on each switch (ablation A4) *)

  partition : Hw_task_manager.partition;
  (** PRR sharing discipline: [Dynamic] (default) is the paper's DPR
      time-sharing; [Static] pins each PRR to one VM at boot
      ([Hw_task_manager.pin_prr]) and denies foreign-PRR requests —
      the Jailhouse-style baseline of the partition study. *)
}

val default_config : config
(** 33 ms quantum, lazy VFP, ASID-tagged TLB, dynamic partitioning.
    The kernel's physical timer always ticks every 1 ms, and a ring
    doorbell always drains its batch in submission order. *)

type t

(** What a guest's [main] receives: enough to address its own virtual
    window and charge its execution, nothing kernel-private. *)
type guest_env = {
  env_zynq : Zynq.t;
  pd_id : int;
  guest_index : int;
  phys_base : Addr.t;
}

val boot : ?config:config -> Zynq.t -> t
(** Initialise kernel memory, activate the kernel address space,
    create the Hardware Task Manager service PD, start the kernel
    tick. *)

val zynq : t -> Zynq.t
val probe : t -> Probe.t

val set_trace : t -> Ktrace.t option -> unit
(** Attach (or detach) an event-trace ring; the kernel then records
    VM switches, hypercalls, interrupt deliveries, manager stages and
    VM deaths into it. *)

val kmem : t -> Kmem.t
val hwtm : t -> Hw_task_manager.t

val ipc_doorbell_irq : int
(** Virtual interrupt injected into a PD when a message arrives. *)

val register_hw_task : t -> Task_kind.t -> Bitstream.id
(** Add a bitstream to the Hardware Task Manager's store. *)

val destroy_hw_task : t -> Bitstream.id -> (unit, string) result
(** Remove a task and recycle its bitstream-store range
    ([Hw_task_manager.destroy_task]); refused while allocated. *)

val create_vm :
  t -> name:string -> ?id:int -> ?priority:int -> ?uses_vfp:bool ->
  (guest_env -> unit) -> Pd.t
(** Create a guest VM: allocates its ASID and address space, builds
    its PD, and enqueues it (priority 1 by default; the manager runs
    at 6). The guest's [main] starts on first schedule. [id] fixes
    the PD id instead of taking the next free one — used by the SMP
    orchestrator to keep one id space across pCPUs; raises
    [Invalid_argument] if that id is already live here. *)

val windows : t -> Id_pool.t
(** Guest physical windows 0..255 and the PD holding each; window [i]
    also names vCPU save-area slot [i + 1]. Read by the invariant
    plane. *)

val can_admit : t -> bool
(** A fresh VM would find a vCPU save-area slot and a guest physical
    window ({!create_vm} raises [Failure] when it would not). *)

val pd : t -> int -> Pd.t option
val pds : t -> Pd.t list
(** Live PDs only: a killed VM is reaped (removed from the kernel's
    tables, its ASID/slot/window/frames recycled), so it no longer
    appears here. *)

val current : t -> Pd.t option

val sched : t -> Sched.t
(** The run queue (read-only use intended: invariant checkers). *)

val kill_vm : t -> int -> reason:string -> bool
(** Host-initiated kill of a live guest by PD id, with the same full
    reclamation as a fault kill. Must be called between [run] slices,
    not from inside guest code. Returns false if the id names no live
    guest. *)

val set_check_hook : t -> (string -> unit) option -> unit
(** Install (or remove) the invariant-plane hook, invoked with a
    boundary name — ["world_switch"], ["kill"], ["recovery"] — after
    the corresponding kernel path completes. The hook runs in kernel
    context, outside any guest fiber, so an exception it raises
    propagates out of {!run}. [None] (the default) is zero-cost and
    cycle-identical. *)

val run : t -> until:Cycles.t -> unit
(** Schedule until the absolute simulated time [until], every guest
    has died, or nothing can ever run again. *)

(** {2 SMP (multi-pCPU) support}

    A multi-pCPU simulation runs one kernel per simulated CPU and
    couples them only at deterministic epoch barriers (see {!Smp}).
    Everything below is driven by that orchestrator; single-kernel
    users never need it, and an un-hooked kernel is bit-identical to
    the pre-SMP one. *)

type smp_hooks = {
  sh_vm_send : dest:int -> sender:int -> payload:int array -> bool;
  (** Consulted when [Vm_send] misses the local PD table. Return true
      iff a remote pCPU owns [dest] and the message was queued as a
      cross-CPU IPI (the kernel then charges the IPI-send path and
      reports success to the guest). *)

  sh_asid_steal : asid:int -> unit;
  (** An ASID was just stolen locally: post an IPI-driven TLB
      shootdown for it to every other pCPU. *)
}

val set_smp_hooks : t -> smp_hooks option -> unit

val run_epoch : t -> until:Cycles.t -> unit
(** One pCPU's slice of a barrier epoch: {!run}'s dispatch step, but
    an idle or guestless kernel keeps pace with the epoch clock instead
    of stopping, never sleeps past [until], and always finishes with
    its clock at (or just past) [until]. *)

val deliver_remote_ipc :
  t -> dest:int -> sender:int -> payload:int array -> bool
(** Barrier-time receive half of a cross-CPU [Vm_send] IPI: charge
    the IPI-receive path, enqueue into [dest]'s inbox, raise its
    doorbell. False (message dropped) if [dest] died or its inbox is
    full — the fate a local fire-and-forget send shares. *)

val apply_shootdown : t -> asid:int -> unit
(** Barrier-time receive half of a remote ASID-steal shootdown IPI:
    charge the shootdown path and drop local translations tagged
    [asid]. *)

val retract_vm : t -> int -> (string * int * bool * (guest_env -> unit)) option
(** Withdraw a never-started, runnable, resource-free VM for
    re-creation on another pCPU (idle-balance migration). Returns
    [(name, priority, uses_vfp, main)], or [None] if the VM is
    ineligible (already started, blocked, holds mappings/ring/queued
    IPC/pending vIRQs, or unknown). The VM is reaped as a kill reaps
    it (host-side bookkeeping only). *)

val alive_guests : t -> int
(** O(1): maintained at create/kill, never rescans the PD table. *)

val crashes : t -> int
(** Guests killed on an unhandled fault/exception. *)

val hypercalls : t -> int
(** Total hypercalls dispatched. *)

(** {2 ABI v2 descriptor rings}

    A [Ring_doorbell] validates the two header words the guest owns
    before it changes any ring state. A submission tail that would put
    more than [entries] descriptors in flight answers
    [R_error "ring: bad submission tail"]; a completion head outside
    [[r_head - entries, r_head]] (the kernel's completion tail, u32
    arithmetic) answers [R_error "ring: bad completion head"]. Either
    way nothing is drained, the ring is unchanged, and the guest may
    ring again once it has rewritten the word. *)

(** Lifetime totals of the ring plane, all monotone. Conservation:
    [rs_enqueued = rs_completed + rs_reclaimed + Σ in-flight] over the
    live rings ({!ring_views}) — the invariant plane checks it at
    world-switch/kill/recovery boundaries. *)
type ring_stats = {
  rs_enqueued : int;        (** descriptors observed at doorbells *)
  rs_completed : int;       (** completion entries written *)
  rs_reclaimed : int;       (** undrained descriptors of killed/reset rings *)
  rs_doorbells : int;       (** [Ring_doorbell] hypercalls *)
  rs_empty_doorbells : int; (** doorbells that found nothing drainable *)
  rs_virqs : int;           (** moderated completion vIRQ injections *)
  rs_max_batch : int;       (** largest single-doorbell batch *)
  rs_asid_steals : int;     (** ASID revocations under over-commit *)
}

val ring_stats : t -> ring_stats

type ring_view = {
  rv_pd : int;
  rv_entries : int;
  rv_in_flight : int;
  rv_sq_phys : Addr.t;
      (** physical base of the submission page — lets harnesses poke
          descriptors host-side the way a DMA-capable device would *)
}

val ring_views : t -> ring_view list
(** One entry per live ring (unordered). *)
