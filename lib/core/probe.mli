(** Instrumentation registry.

    Probe holds only what Table III and the ablations read: the
    Hardware Task Manager entry/execution/exit, PL IRQ delivery and VM
    switch samples (cycles) and the [fault_kill] and [vfp_switch]
    event counts. The kernel feeds the fields directly; readers name a
    sample by its typed label. Everything else the kernel measures
    goes to {!Obs} once. *)

type t = {
  hwtm_entry : Stats.t;
  hwtm_exec : Stats.t;
  hwtm_exit : Stats.t;
  pl_irq_entry : Stats.t;
  vm_switch : Stats.t;
  mutable fault_kill : int;  (** VMs killed over the hwMMU limit *)
  mutable vfp_switch : int;  (** VFP bank hand-overs *)
}

val create : unit -> t

val reset : t -> unit
(** Clear every sample in place and zero the counts (after warm-up). *)

(** {2 Sample labels} *)

type label = t -> Stats.t

val stats : t -> label -> Stats.t

val hwtm_entry : label
val hwtm_exec : label
val hwtm_exit : label
val pl_irq_entry : label
val vm_switch : label
