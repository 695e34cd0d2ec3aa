(** The µC/OS-II porting layer.

    Everything the guest RTOS needs from "hardware" goes through this
    record, so the same OS runs under two ports — which is exactly the
    paper's experimental setup:

    - {!paravirt} implements each entry with Mini-NOVA hypercalls and
      VM-exit effects (the "porting patch" of §V-A, ~200 LoC);
    - {!Port_native} implements them with direct privileged device
      access (the baseline row of Table III).

    The per-function comment says which hypercall(s) back the
    paravirtualized flavour. *)

type t = {
  zynq : Zynq.t;
  priv : bool;
  (** privilege of guest memory accesses: native SVC vs USR *)

  my_id : int;
  (** PD id under Mini-NOVA; 0 natively *)

  timer_irq : int;
  (** source id delivered on an OS tick *)

  doorbell_irq : int option;
  (** IPC doorbell (paravirt only) *)

  pause : unit -> int list;
  (** chunk boundary; returns delivered interrupts ([Vm_pause]) *)

  idle_wait : unit -> int list;
  (** block until an interrupt arrives ([Vm_idle] / WFI) *)

  start_tick : Cycles.t -> unit;
  (** arm the periodic OS tick ([Irq_enable] + [Vtimer_config]) *)

  stop_tick : unit -> unit;

  ticks_elapsed : unit -> int;
  (** number of OS ticks due since the last call — a virtual timer's
      tick-count register. Coalesced virtual-timer interrupts (the VM
      was descheduled across several periods) are recovered here, so
      guest time keeps tracking wall time. *)

  enable_irq : int -> unit;
  (** unmask an interrupt source for this guest ([Irq_enable]) *)

  uart : string -> unit;
  (** console output ([Uart_write]) *)

  cache_clean : vaddr:Addr.t -> len:int -> unit;
  (** write back guest data before DMA-in ([Cache_clean_range]) *)

  cache_invalidate : vaddr:Addr.t -> len:int -> unit;
  (** drop stale lines after DMA-out ([Cache_invalidate_range]) *)

  hw_request :
    task:int -> iface_vaddr:Addr.t -> data_vaddr:Addr.t -> data_len:int ->
    want_irq:bool -> Hyper.response;
  (** [Hw_task_request] / direct manager call *)

  hw_release : task:int -> Hyper.response;
  hw_status : task:int -> Hyper.response;

  ring_setup : entries:int -> cvirq_budget:int -> Hyper.response;
  (** map the ABI v2 descriptor ring ([Ring_setup]; paravirt only —
      the native port has no hypervisor to batch against) *)

  ring_doorbell : unit -> Hyper.response;
  (** drain published descriptors ([Ring_doorbell]) *)

  send : dest:int -> int array -> Hyper.response;
  recv : unit -> (int * int array) option;
}

val paravirt : Kernel.guest_env -> t
(** Build the paravirtualized port for a VM created with
    {!Kernel.create_vm}. This function {e is} the porting patch. *)
