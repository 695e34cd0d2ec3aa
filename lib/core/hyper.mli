(** The paravirtualization ABI: hypercalls and VM-exit effects.

    The ABI is versioned. {e ABI v1} is the paper's interface:
    {e exactly 25 hypercalls} (paper §V-B), numbers 1–25, enumerated
    first in {!requests}. {e ABI v2} is the descriptor-ring extension:
    it appends {!Ring_setup}/{!Ring_doorbell} (numbers 26–27,
    {!requests_v2}) through which guests batch hardware-task job
    descriptors into a per-VM shared-memory submission/completion ring
    and notify the kernel with a single doorbell, instead of one
    {!Hw_task_request} trap per job. A unit test pins each version's
    enumeration. Guests are OCaml fibers: a hypercall is an OCaml
    effect performed by guest code and handled by the kernel, which
    models the SVC trap; {!Vm_pause} marks an instruction-boundary
    where interrupts can be delivered and the scheduler may switch
    VMs; {!Und_trap} models executing a privileged instruction in USR
    mode (the trap-and-emulate alternative the paper contrasts with
    hypercalls in §II-A). *)

type guest_mode = Gm_kernel | Gm_user
(** The two software privilege levels inside a guest; both run in USR
    mode, separated by the DACR trick of paper Table II. *)

type priv_reg =
  | Reg_ttbr        (** translation table base (read-only to guests) *)
  | Reg_asid
  | Reg_counter     (** global cycle counter *)
  | Reg_cpuid
  | Reg_l2ctrl      (** L2 cache control (lazily switched, Table I) *)

type priv_instr =
  | Mrc of priv_reg          (** read a privileged register *)
  | Mcr of priv_reg * int    (** write a privileged register *)
  | Wfi                      (** wait for interrupt *)

type request =
  | Cache_clean_range of { vaddr : Addr.t; len : int }
  | Cache_invalidate_range of { vaddr : Addr.t; len : int }
  | Cache_flush_all
  | Tlb_flush_asid
  | Tlb_flush_all
  | Irq_enable of int
  | Irq_disable of int
  | Irq_set_entry of Addr.t
  | Irq_eoi of int
  | Vtimer_config of { interval : Cycles.t }
  | Vtimer_stop
  | Map_insert of { vaddr : Addr.t; gphys_off : int; user : bool }
  | Map_remove of { vaddr : Addr.t }
  | Pt_alloc_l2 of { vaddr : Addr.t }
  | Set_guest_mode of guest_mode
  | Priv_reg_read of priv_reg
  | Priv_reg_write of priv_reg * int
  | Uart_write of string
  | Sd_read of { block : int }
  | Sd_write of { block : int; data : Bytes.t }
  | Hw_task_request of {
      task : Bitstream.id;
      iface_vaddr : Addr.t;   (** where to map the PRR register page *)
      data_vaddr : Addr.t;    (** guest hardware-task data section *)
      data_len : int;
      want_irq : bool;        (** attach a PL IRQ and register it in the vGIC *)
    }
  | Hw_task_release of { task : Bitstream.id }
  | Hw_task_status of { task : Bitstream.id }
  | Vm_send of { dest : int; payload : int array }
  | Vm_recv
  | Ring_setup of { entries : int; cvirq_budget : int }
    (** Map this VM's job ring: [entries] submission/completion slots
        (rounded into a supported power of two by the kernel) at the
        fixed window addresses in {!Guest_layout}; [cvirq_budget]
        caps completions acknowledged per completion vIRQ (0 disables
        the vIRQ — pure polling). Returns {!R_ring}. *)
  | Ring_doorbell
    (** Tell the kernel the submission-ring tail moved. The kernel
        drains every pending descriptor in order (doorbell
        coalescing: N enqueues + one doorbell = one trap) and posts
        one completion entry per descriptor; returns [R_int drained].
        An empty doorbell is a cheap no-op. *)

val abi_version : int
(** Current ABI version: 2. *)

val hypercall_count_v1 : int
(** 25, as the paper states (§V-B). *)

val hypercall_count_v2 : int
(** 27: v1 plus the ring pair. *)

val hypercall_count : int
(** Total hypercalls in the current ABI ([hypercall_count_v2]). *)

val number : request -> int
(** Stable ABI number: 1–25 for v1, 26–27 for v2. *)

val version_of : request -> int
(** ABI version that introduced the hypercall (1 or 2). *)

val name : request -> string

val requests_v2 : request list
(** The v2 additions: one representative value per constructor, in ABI
    order ([List.map number requests_v2] is [26; 27]), with neutral
    payloads (zero addresses, empty buffers). *)

val requests : request list
(** The full current ABI: the v1 hypercalls (numbers 1–25, same
    conventions) followed by {!requests_v2}. *)

type hw_status =
  | Hw_success   (** task ready in a PRR, interface mapped *)
  | Hw_reconfig  (** allocated; PCAP download in flight (Fig 7 stage 6) *)
  | Hw_busy      (** no suitable idle PRR / PCAP occupied — retry later *)
  | Hw_bad_task  (** unknown task id *)
  | Hw_fault     (** manager could not complete the request because of a
                     fault (e.g. the interface page could not be mapped);
                     retrying with the same arguments will fail again *)
  | Hw_denied    (** static partitioning: none of the task's PRRs is
                     pinned to the requesting VM — permanent for the
                     current partition layout, do not retry *)

type response =
  | R_unit
  | R_int of int
  | R_bytes of Bytes.t
  | R_hw of { status : hw_status; irq : int option; prr : int option }
  | R_msg of (int * int array) option      (** sender, payload *)
  | R_status of { prr_ready : bool; consistent : bool; faults : int }
    (** [faults] counts fault/recovery events that hit the client's
        current allocation (failed downloads, forced resets, retries);
        0 on a healthy allocation. *)
  | R_ring of { sq_vaddr : Addr.t; cq_vaddr : Addr.t; entries : int }
    (** Ring geometry granted by {!Ring_setup}: submission and
        completion page base addresses in the guest window and the
        slot count actually provisioned. *)
  | R_error of string

type pause_result = { virqs : int list }
(** Virtual interrupts (physical GIC ids) delivered at this boundary,
    drained from the VM's vGIC in arrival order. *)

type _ Effect.t +=
  | Hypercall : request -> response Effect.t
  | Vm_pause : pause_result Effect.t
  | Vm_idle : pause_result Effect.t
  | Und_trap : priv_instr -> int Effect.t

val hypercall : request -> response
(** Guest-side wrapper: perform the SVC trap. *)

val pause : unit -> pause_result
(** Guest-side chunk boundary. *)

val idle : unit -> pause_result
(** Guest has no runnable work: block until an interrupt is pending
    for this VM (kernel deschedules it meanwhile). *)

val und_trap : priv_instr -> int
(** Execute a privileged instruction the trap-and-emulate way. *)

val hw_status_name : hw_status -> string

val pp_response : Format.formatter -> response -> unit
