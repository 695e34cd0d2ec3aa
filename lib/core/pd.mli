(** Protection Domain: the kernel object representing one VM or user
    service (paper §III-A).

    A PD is the resource container and capability interface between a
    virtual machine and the microkernel: identity, priority, vCPU,
    vGIC, translation table, ASID, time quantum, IPC inbox, and the
    hardware-task bookkeeping the Hardware Task Manager needs
    (data-section window, interface mappings). *)

type kind =
  | Guest    (** scheduled VM running guest code *)
  | Service  (** kernel-invoked user service (the HW Task Manager) *)

type state =
  | Runnable   (** in the run queue *)
  | Blocked    (** waiting for a virtual interrupt (suspend queue) *)
  | Dead       (** terminated (main returned or killed on fault) *)

type t = {
  id : int;
  name : string;
  kind : kind;
  priority : int;            (** scheduler level, higher wins *)
  mutable asid : int;
      (** TLB tag; 0 is the over-commit sentinel "none assigned yet" —
          the kernel steals one before the PD first runs *)
  pt : Page_table.t;
  vcpu : Vcpu.t;
  vgic : Vgic.t;
  phys_base : Addr.t;        (** base of the guest physical allotment *)
  quantum : Cycles.t;        (** full time slice (33 ms by default) *)
  inbox : Ipc.t;
  mutable state : state;
  mutable quantum_left : Cycles.t;
  mutable data_section : (Addr.t * int * Addr.t) option;
      (** hardware-task data section: vaddr, length, physical base *)
  mutable iface_mappings : (Bitstream.id * int * Addr.t) list;
      (** held tasks: task id, PRR id, interface vaddr *)
  mutable vtimer_interval : Cycles.t option;
  mutable vtimer_generation : int;
      (** invalidates in-flight virtual-timer events on reconfigure *)
}

val make :
  id:int -> name:string -> kind:kind -> priority:int -> asid:int ->
  pt:Page_table.t -> phys_base:Addr.t -> quantum:Cycles.t ->
  ?slot:int -> unit -> t
(** [slot] picks the vCPU save-area slot (see {!Vcpu.create}). *)

val is_guest : t -> bool

val no_iface : Addr.t
(** [-1]: {!iface_vaddr} of a task the PD does not hold. *)

val iface_vaddr : t -> Bitstream.id -> Addr.t
(** Interface vaddr of a held task, or {!no_iface}. *)

val holds_iface : t -> Bitstream.id -> bool

val add_iface : t -> Bitstream.id -> prr:int -> vaddr:Addr.t -> unit
val remove_iface : t -> Bitstream.id -> unit
