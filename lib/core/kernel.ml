type config = {
  quantum : Cycles.t;
  vfp_policy : [ `Lazy | `Active ];
  tlb_policy : [ `Asid | `Flush_all ];
  partition : Hw_task_manager.partition;
}

let default_config =
  { quantum = Cycles.of_ms 33.0;
    vfp_policy = `Lazy;
    tlb_policy = `Asid;
    partition = Hw_task_manager.Dynamic }

type guest_env = {
  env_zynq : Zynq.t;
  pd_id : int;
  guest_index : int;
  phys_base : Addr.t;
}

(* VM-exit reasons surfaced by the effect handler. *)
type exit =
  | X_done
  | X_crash of exn
  | X_pause of (Hyper.pause_result, exit) Effect.Deep.continuation
  | X_idle of (Hyper.pause_result, exit) Effect.Deep.continuation
  | X_hyper of Hyper.request * (Hyper.response, exit) Effect.Deep.continuation
  | X_und of Hyper.priv_instr * (int, exit) Effect.Deep.continuation

type vm_rt = {
  pd : Pd.t;
  main : guest_env -> unit;
  env : guest_env;
  mutable started : bool;
  mutable saved : (Hyper.pause_result, exit) Effect.Deep.continuation option;
  mutable slice_start : Cycles.t;
}

(* Pinned control-path traces (see {!Exec.pin}): the fixed kernel
   paths — trap entry + hypercall dispatch, per-hypercall handler
   stubs, world-switch pieces, vGIC injection — are interned once and
   replayed as compiled trace programs per translation context. The
   slot-keyed handles are shared by every VM that recycles the
   save-area slot, so lifecycle churn does not recompile them. *)
type kfast = {
  kf_prologue : Fastpath.pinned;         (* svc_entry + hyper_dispatch *)
  kf_svc_exit : Fastpath.pinned;
  kf_irq_entry : Fastpath.pinned;
  kf_sched_pick : Fastpath.pinned;
  kf_mgr_entry : Fastpath.pinned;
  kf_handlers : Fastpath.pinned array;   (* index = Hyper.number - 1 *)
  kf_ring_setup : Fastpath.pinned;       (* ABI v2 ring initialisation *)
  kf_ring_drain : Fastpath.pinned;       (* doorbell header/descriptor loop *)
  kf_ring_complete : Fastpath.pinned;    (* CQE writer + header write-back *)
  kf_ipi_send : Fastpath.pinned;         (* SMP: IPI post trampoline *)
  kf_ipi_recv : Fastpath.pinned;         (* SMP: IPI receive + dispatch *)
  kf_shootdown : Fastpath.pinned;        (* SMP: remote ASID TLB shootdown *)
  kf_und_trap : Fastpath.pinned;         (* trap-and-emulate entry *)
  kf_ipc_copy : Fastpath.pinned;         (* IPC copy, per-word cost apart *)
  kf_save : Fastpath.pinned option array;     (* by vCPU save slot *)
  kf_restore : Fastpath.pinned option array;
  kf_inject : Fastpath.pinned option array;
  kf_mgr_exit : Fastpath.pinned option array;
  kf_vfp_load : Fastpath.pinned option array;
  kf_vfp_store : Fastpath.pinned option array;
}

(* One ABI v2 descriptor ring per VM (paper-ABI extension): indices
   are free-running u32 counters in virtio style, [land (entries-1)]
   picks the slot. [r_tail] is the last guest-published submission
   tail the kernel has observed; [r_head] counts descriptors drained
   (and, since execution is synchronous, completions written). *)
type ring = {
  r_pd : int;
  r_entries : int;                       (* power of two, <= 64 *)
  r_budget : int;                        (* completions per vIRQ; 0 = poll *)
  r_sq_phys : Addr.t;
  r_cq_phys : Addr.t;
  mutable r_tail : int;
  mutable r_head : int;
}

(* Pre-resolved instrumentation handles: the hot paths bump these
   directly instead of concatenating and hashing label strings on
   every hypercall/switch/IRQ. *)
type kinstr = {
  ko_hyper : Obs.counter array;          (* "hyper.<name>" by number-1 *)
  ko_switches : Obs.counter;
  ko_kills : Obs.counter;
  ko_alive : Obs.gauge;
}

(* Cross-pCPU coupling, installed by the SMP orchestrator (lib/core
   Smp) on multi-pCPU runs only — a single-pCPU kernel never consults
   these, keeping its cycle behaviour bit-identical to the pre-SMP
   kernel. [sh_vm_send] is consulted when a [Vm_send] misses the local
   PD table: returning true means a remote pCPU owns the destination
   and the message was queued as a cross-CPU IPI. [sh_asid_steal]
   posts an ASID-tagged TLB shootdown to every other pCPU. *)
type smp_hooks = {
  sh_vm_send : dest:int -> sender:int -> payload:int array -> bool;
  sh_asid_steal : asid:int -> unit;
}

type t = {
  z : Zynq.t;
  cfg : config;
  kmem : Kmem.t;
  sched : Sched.t;
  probe : Probe.t;
  pd_tbl : Pd.t Int_table.t;
  rts : vm_rt Int_table.t;
  hwtm : Hw_task_manager.t;
  mgr_pd : Pd.t;
  kf : kfast;
  ki : kinstr;
  mutable cur : vm_rt option;
  (* The VFP bank owner carries its vCPU so the charged bank save
     still targets the right save area after the owner is reaped. *)
  mutable vfp_owner : (int * Vcpu.t) option;
  mutable next_pd : int;
  windows : Id_pool.t;                    (* window i = save slot i + 1 *)
  mutable crash_count : int;
  mutable hypercall_count : int;
  mutable trace : Ktrace.t option;
  mutable check_hook : (string -> unit) option;
  (* O(1) liveness: maintained at create/kill so neither the run loop
     nor the kill-path gauge rescans the PD table at fleet scale. *)
  mutable alive : int;
  rings : ring Int_table.t;               (* PD id -> its v2 ring *)
  mutable ring_enqueued_total : int;
  mutable ring_completed_total : int;
  mutable ring_reclaimed_total : int;
  mutable ring_doorbells : int;
  mutable ring_empty_doorbells : int;
  mutable ring_virqs : int;
  mutable ring_max_batch : int;
  mutable asid_steals : int;
  mutable smp : smp_hooks option;
  (* Doorbell drain scratch, reused by every drain on this kernel (one
     per pCPU, never shared between domains): the batch's descriptor
     words (7 per entry) and its completion words (4 per entry), both
     in slot order. *)
  drain_desc : int array;
  drain_cqe : int array;
}

(* Ring entry shapes in words: a descriptor is op, task, iface vaddr,
   data vaddr, data length, flags (bit 0 want_irq, the rest reserved
   and ignored), tag; a completion is tag, status, PRR + 1, vIRQ + 1. *)
let desc_words = Guest_layout.ring_desc_words
let cqe_words = Guest_layout.ring_cqe_size / 4

let ipc_doorbell_irq = 95
let ring_virq = 94

let mgr_asid = 1

(* Period of the kernel's physical timer tick. *)
let kernel_tick = Cycles.of_ms 1.0

let kernel_irqs =
  Irq_id.private_timer :: Irq_id.devcfg
  :: List.init Irq_id.pl_count Irq_id.pl

(* [List.mem] at int equality: no polymorphic compare per element. *)
let rec int_mem (i : int) = function
  | [] -> false
  | k :: rest -> k = i || int_mem i rest

let handler : (unit, exit) Effect.Deep.handler =
  { Effect.Deep.retc = (fun () -> X_done);
    exnc = (fun e -> X_crash e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
         match eff with
         | Hyper.Hypercall r ->
           Some
             (fun (k : (a, exit) Effect.Deep.continuation) -> X_hyper (r, k))
         | Hyper.Vm_pause ->
           Some (fun (k : (a, exit) Effect.Deep.continuation) -> X_pause k)
         | Hyper.Vm_idle ->
           Some (fun (k : (a, exit) Effect.Deep.continuation) -> X_idle k)
         | Hyper.Und_trap i ->
           Some
             (fun (k : (a, exit) Effect.Deep.continuation) -> X_und (i, k))
         | _ -> None) }

let mk_fp ?(reads = []) ?(writes = []) ?(base_cycles = 0) (base, len) label =
  { Exec.label; code = { Exec.base; len }; reads; writes; base_cycles }

(* vCPU save areas live between data+0x2000 and the manager's tables.
   Slot 0 is the manager's; a guest's slot is its window index + 1. *)
let vcpu_slots = Address_map.guest_slot_count + 1

let () =
  let base0, slot_len = Klayout.vcpu_save_area 0 in
  assert (base0 + (vcpu_slots * slot_len) <= fst Klayout.mgr_task_table)

let make_kfast () =
  let pd_base, pd_len = Klayout.pd_table in
  let stack_base, _ = Klayout.mgr_stack in
  { kf_prologue =
      Exec.pin
        [| mk_fp Klayout.svc_entry "svc_entry"
             ~base_cycles:Costs.hypercall_entry;
           mk_fp Klayout.hyper_dispatch "hyper_dispatch"
             ~reads:[ { Exec.base = pd_base; len = min 128 pd_len } ] |];
    kf_svc_exit =
      Exec.pin1
        (mk_fp Klayout.svc_exit "svc_exit"
           ~base_cycles:
             (Costs.hypercall_exit + Cpu_mode.exception_return_cycles));
    kf_irq_entry =
      Exec.pin1
        (mk_fp Klayout.irq_entry "irq_entry"
           ~base_cycles:(Cpu_mode.exception_entry_cycles + Costs.irq_route));
    kf_sched_pick =
      Exec.pin1
        (mk_fp Klayout.sched_pick "sched_pick" ~base_cycles:Costs.sched_pick);
    kf_mgr_entry =
      Exec.pin1
        (mk_fp Klayout.mgr_entry_stub "hwtm_entry"
           ~writes:[ { Exec.base = stack_base; len = 128 } ]
           ~base_cycles:Costs.mgr_entry);
    kf_handlers =
      Array.init Hyper.hypercall_count (fun i ->
          Exec.pin1
            (mk_fp (Klayout.handler (i + 1)) "hyper_handler"
               ~base_cycles:Costs.hypercall_handler));
    kf_ring_setup =
      Exec.pin1
        (mk_fp Klayout.ring_setup_stub "ring_setup"
           ~base_cycles:Costs.ring_setup);
    kf_ring_drain = Exec.pin1 (mk_fp Klayout.ring_drain_stub "ring_drain");
    kf_ring_complete =
      Exec.pin1 (mk_fp Klayout.ring_complete_stub "ring_complete");
    kf_ipi_send =
      Exec.pin1
        (mk_fp Klayout.ipi_send_stub "ipi_send" ~base_cycles:Costs.ipi_send);
    kf_ipi_recv =
      Exec.pin1
        (mk_fp Klayout.ipi_recv_stub "ipi_recv"
           ~base_cycles:Costs.ipi_receive);
    kf_shootdown =
      Exec.pin1
        (mk_fp Klayout.shootdown_stub "tlb_shootdown"
           ~base_cycles:Costs.tlb_shootdown);
    kf_und_trap = Exec.pin1 Trap_emulate.trap_fp;
    kf_ipc_copy = Exec.pin1 (mk_fp Klayout.ipc_copy "ipc_copy");
    kf_save = Array.make vcpu_slots None;
    kf_restore = Array.make vcpu_slots None;
    kf_inject = Array.make vcpu_slots None;
    kf_mgr_exit = Array.make vcpu_slots None;
    kf_vfp_load = Array.make vcpu_slots None;
    kf_vfp_store = Array.make vcpu_slots None }

let make_kinstr z =
  let obs = z.Zynq.obs in
  let names = Array.make Hyper.hypercall_count "" in
  List.iter
    (fun r -> names.(Hyper.number r - 1) <- Hyper.name r)
    Hyper.requests;
  { ko_hyper = Array.map (fun n -> Obs.counter obs ("hyper." ^ n)) names;
    ko_switches = Obs.counter obs "kernel.vm_switches";
    ko_kills = Obs.counter obs "kernel.vm_kills";
    ko_alive = Obs.gauge obs "alive_vms" }

(* Get-or-intern the pinned trace for a save-area slot. The handle
   outlives the VM: recycled slots reuse it, so lifecycle churn never
   recompiles the switch/inject traces. [make] gets [arg] instead of
   closing over it, so a call that finds the handle allocates nothing. *)
let slot_pin arr slot make arg =
  match arr.(slot) with
  | Some p -> p
  | None ->
    let p = make arg in
    arr.(slot) <- Some p;
    p

let charge_ipc_copy t words =
  Exec.run_pinned t.z ~priv:true t.kf.kf_ipc_copy;
  Clock.advance t.z.Zynq.clock (words * Costs.ipc_per_word)

(* The next owner's load (code, bank, whole cost) runs before the
   previous owner's store: the reference order of code, reads, writes. *)
let switch_vfp t ~from ~to_ =
  let run arr fp v =
    Exec.run_pinned t.z ~priv:true
      (slot_pin arr (Vcpu.slot v) (fun v -> Exec.pin1 (fp v)) v)
  in
  run t.kf.kf_vfp_load Vcpu.vfp_load_fp to_;
  Option.iter (run t.kf.kf_vfp_store Vcpu.vfp_store_fp) from;
  t.probe.Probe.vfp_switch <- t.probe.Probe.vfp_switch + 1

(* The manager's view of the guests on this kernel: each callback finds
   the client's PD by id (a row's holder is always alive here — kill
   releases its rows before the PD is reaped, and only VMs with no
   interface mapping migrate). [find] rather than [find_opt]: these run
   on every request and release, and a hit then allocates nothing. *)
let manager_env kmem pd_tbl =
  { Hw_task_manager.map_iface =
      (fun ~client_id ~task ~vaddr prr ->
         match Int_table.find pd_tbl client_id with
         | exception Not_found -> Error "iface: no such client"
         | pd ->
           (* Re-requesting a held task at a new vaddr moves its
              window: drop the old page or it would leak, mapped but
              unaccounted. *)
           let old_va = Pd.iface_vaddr pd task in
           if old_va <> Pd.no_iface && old_va <> vaddr then begin
             Kmem.unmap_iface kmem pd ~vaddr:old_va;
             Pd.remove_iface pd task
           end;
           match
             Kmem.map_iface kmem pd ~prr_regs_base:prr.Prr.regs_base ~vaddr
           with
           | Ok () ->
             Pd.add_iface pd task ~prr:prr.Prr.id ~vaddr;
             Ok ()
           | Error e -> Error e);
    unmap_iface =
      (fun ~client_id ~task ~vaddr _prr ->
         match Int_table.find pd_tbl client_id with
         | pd when Pd.holds_iface pd task ->
           Kmem.unmap_iface kmem pd ~vaddr;
           Pd.remove_iface pd task
         | _ -> ()
         | exception Not_found -> ());
    notify_irq =
      (fun ~client_id _prr i ->
         match Int_table.find pd_tbl client_id with
         | pd ->
           let v = Irq_id.pl i in
           Vgic.register pd.Pd.vgic v;
           Vgic.enable pd.Pd.vgic v
         | exception Not_found -> ()) }

let boot ?(config = default_config) z =
  let kmem = Kmem.create z in
  let pd_tbl = Int_table.create 8 in
  let hwtm =
    Hw_task_manager.create ~partition:config.partition
      ~env:(manager_env kmem pd_tbl) z
  in
  let mgr_pd =
    Pd.make ~id:0 ~name:"hwtm" ~kind:Pd.Service ~priority:6 ~asid:mgr_asid
      ~pt:(Kmem.kernel_pt kmem) ~phys_base:0 ~quantum:config.quantum ()
  in
  List.iter (Gic.enable z.Zynq.gic) kernel_irqs;
  Private_timer.start z.Zynq.ptimer ~interval:kernel_tick;
  let t =
    { z; cfg = config; kmem;
      sched = Sched.create ();
      probe = Probe.create ();
      pd_tbl;
      rts = Int_table.create 8;
      hwtm; mgr_pd;
      kf = make_kfast ();
      ki = make_kinstr z;
      cur = None; vfp_owner = None;
      next_pd = 1;
      windows =
        Id_pool.create ~first:0 ~limit:Address_map.guest_slot_count;
      crash_count = 0; hypercall_count = 0;
      trace = None; check_hook = None;
      alive = 0;
      rings = Int_table.create 8;
      ring_enqueued_total = 0; ring_completed_total = 0;
      ring_reclaimed_total = 0;
      ring_doorbells = 0; ring_empty_doorbells = 0; ring_virqs = 0;
      ring_max_batch = 0; asid_steals = 0; smp = None;
      drain_desc = Array.make (Guest_layout.ring_max_entries * desc_words) 0;
      drain_cqe = Array.make (Guest_layout.ring_max_entries * cqe_words) 0 }
  in
  Int_table.replace t.pd_tbl 0 mgr_pd;
  t

let zynq t = t.z
let probe t = t.probe
let set_trace t tr = t.trace <- tr

let emit t ?severity ~category ~name fields =
  match t.trace with
  | Some tr ->
    Ktrace.record tr (Clock.now t.z.Zynq.clock) ?severity ~category ~name
      fields
  | None -> ()
let kmem t = t.kmem
let hwtm t = t.hwtm

let register_hw_task t kind = Hw_task_manager.register_task t.hwtm kind
let destroy_hw_task t id = Hw_task_manager.destroy_task t.hwtm id

let windows t = t.windows
let can_admit t = Id_pool.live t.windows < Address_map.guest_slot_count

let create_vm t ~name ?id ?(priority = 1) ?(uses_vfp = false) main =
  (* Fail before consuming anything. Host-only: no hypercall creates a
     VM, and Smp's migration checks [can_admit] first. *)
  if not (can_admit t) then
    failwith "Kernel.create_vm: guest physical windows exhausted";
  (* [id] lets the SMP orchestrator keep one PD-id space across
     pCPUs (and preserve a VM's id over migration); uniqueness is the
     caller's responsibility there. Single-kernel callers omit it. *)
  let id =
    match id with
    | None ->
      let id = t.next_pd in
      t.next_pd <- id + 1;
      id
    | Some id ->
      (* Host-only, as above: Smp passes fresh ids, or on migration the
         id it has just retracted from the source pCPU. *)
      if Int_table.mem t.pd_tbl id then
        invalid_arg "Kernel.create_vm: pd id already live";
      t.next_pd <- max t.next_pd (id + 1);
      id
  in
  (* ASIDs over-commit beyond the 254 guest tags: a fresh PD that finds
     the space exhausted starts with the sentinel 0 and has a tag
     stolen for it the first time it is switched in. *)
  let asid = Option.value (Kmem.try_alloc_asid t.kmem ~pd:id) ~default:0 in
  let index = Option.get (Id_pool.take t.windows ~holder:id) in
  let slot = index + 1 in
  let pt = Kmem.make_guest_pt t.kmem ~index in
  let phys_base = Address_map.guest_phys_base index in
  let pd =
    Pd.make ~id ~name ~kind:Pd.Guest ~priority ~asid ~pt ~phys_base
      ~quantum:t.cfg.quantum ~slot ()
  in
  Vcpu.set_uses_vfp pd.Pd.vcpu uses_vfp;
  let env = { env_zynq = t.z; pd_id = id; guest_index = index; phys_base } in
  let rt = { pd; main; env; started = false; saved = None; slice_start = 0 } in
  Int_table.replace t.pd_tbl id pd;
  Int_table.replace t.rts id rt;
  Sched.enqueue t.sched pd;
  t.alive <- t.alive + 1;
  pd

let pd t id = Int_table.find_opt t.pd_tbl id
let pds t = Int_table.fold (fun _ p acc -> p :: acc) t.pd_tbl []
let current t = Option.map (fun rt -> rt.pd) t.cur
let sched t = t.sched
let set_check_hook t h = t.check_hook <- h
let set_smp_hooks t h = t.smp <- h

let alive_guests t = t.alive

let crashes t = t.crash_count
let hypercalls t = t.hypercall_count

let drain rt = { Hyper.virqs = Vgic.drain rt.pd.Pd.vgic }

let unblock t (pd : Pd.t) =
  if pd.Pd.state = Pd.Blocked && Vgic.has_deliverable pd.Pd.vgic then begin
    pd.Pd.state <- Pd.Runnable;
    Sched.enqueue t.sched pd
  end

(* Distribute an interrupt into a PD's vGIC, charging the injection
   stub plus the per-PD vGIC/vCPU state it touches — per-VM kernel
   data whose cache residency decays as more VMs run (Table III's
   "PL IRQ entry" growth). *)
let inject_charged t pd_id irq =
  match Int_table.find_opt t.pd_tbl pd_id with
  | None -> ()
  | Some pd ->
    (* The vIRQ list lives in the upper half of the PD's kernel save
       block: touched only on injection, so its residency genuinely
       decays with the number of competing VMs. *)
    let pin =
      slot_pin t.kf.kf_inject (Vcpu.slot pd.Pd.vcpu)
        (fun (pd : Pd.t) ->
          let sa_base, _ = Vcpu.save_area pd.Pd.vcpu in
          Exec.pin1
            (mk_fp Klayout.vgic_inject "vgic_inject"
               ~reads:[ { Exec.base = sa_base + 384; len = 64 } ]
               ~writes:[ { Exec.base = sa_base + 448; len = 32 } ]
               ~base_cycles:Costs.vgic_inject))
        pd
    in
    Exec.run_pinned t.z ~priv:true pin;
    if t.trace <> None then
      emit t ~severity:Ktrace.Debug ~category:"irq" ~name:"virq-inject"
        [ ("pd", Ktrace.Int pd.Pd.id); ("irq", Ktrace.Int irq) ];
    Vgic.set_pending pd.Pd.vgic irq;
    unblock t pd

let release_all_tasks t (pd : Pd.t) =
  List.iter
    (fun (task, _, _) ->
       ignore (Hw_task_manager.release t.hwtm ~client_id:pd.Pd.id ~task))
    pd.Pd.iface_mappings;
  pd.Pd.iface_mappings <- []

let run_check t boundary =
  match t.check_hook with None -> () | Some f -> f boundary

(* Reap a dead PD, shared by [kill] and [retract_vm]: its table
   entries, guest physical window, save-area slot, ASID and
   translation-table frames are recycled for future VMs. Host-side
   bookkeeping only: it charges no cycle. *)
let reap t rt =
  let pd = rt.pd in
  Int_table.remove t.pd_tbl pd.Pd.id;
  Int_table.remove t.rts pd.Pd.id;
  Id_pool.release t.windows rt.env.guest_index;
  if pd.Pd.asid <> 0 then Kmem.free_asid t.kmem pd.Pd.asid;
  Kmem.retire_guest_pt t.kmem pd.Pd.pt;
  t.alive <- t.alive - 1;
  Obs.set_gauge t.ki.ko_alive t.alive

let kill t rt reason =
  emit t ~severity:Ktrace.Warn ~category:"sched" ~name:"vm-dead"
    [ ("pd", Ktrace.Int rt.pd.Pd.id); ("reason", Ktrace.Str reason) ];
  rt.pd.Pd.state <- Pd.Dead;
  rt.pd.Pd.vtimer_generation <- rt.pd.Pd.vtimer_generation + 1;
  rt.pd.Pd.vtimer_interval <- None;
  Sched.dequeue t.sched rt.pd;
  release_all_tasks t rt.pd;
  (* Full reclamation: PRRs/windows above, plus any latched vIRQs. *)
  ignore (Vgic.clear_pending rt.pd.Pd.vgic);
  (match t.cur with Some c when c == rt -> t.cur <- None | Some _ | None -> ());
  (* The charged parts of teardown (task release, demaps) happened
     above, so reaping changes no cycle. The dangling vfp_owner is
     kept: the bank save to the dead owner's area is charged exactly as
     real hardware would. *)
  reap t rt;
  (* Ring reclamation: descriptors the guest published but the kernel
     never drained are accounted as reclaimed, keeping the ring
     conservation invariant closed over kills. *)
  (match Int_table.find_opt t.rings rt.pd.Pd.id with
   | Some r ->
     t.ring_reclaimed_total <-
       t.ring_reclaimed_total + ((r.r_tail - r.r_head) land 0xFFFFFFFF);
     Int_table.remove t.rings rt.pd.Pd.id
   | None -> ());
  Obs.incr t.ki.ko_kills;
  run_check t "kill"

let kill_vm t id ~reason =
  match Int_table.find_opt t.rts id with
  | Some rt when rt.pd.Pd.state <> Pd.Dead ->
    kill t rt reason;
    true
  | Some _ | None -> false

(* SMP idle-balance migration support: withdraw a not-yet-started VM
   so the orchestrator can re-create it (same id) on another pCPU.
   Only VMs with no machine state beyond their creation-time resources
   are eligible — never started (the fiber, once begun, captures this
   board), runnable, no interface mappings, no ring, no queued IPC,
   no latched vIRQs. Returns the creation-time payload, or [None] if
   the VM is ineligible or unknown. Host-side bookkeeping only: the
   cycle charge for the migration is the orchestrator's. *)
let retract_vm t id =
  match Int_table.find_opt t.rts id with
  | None -> None
  | Some rt ->
    let pd = rt.pd in
    if
      rt.started
      || pd.Pd.state <> Pd.Runnable
      || pd.Pd.iface_mappings <> []
      || Int_table.mem t.rings id
      || Ipc.depth pd.Pd.inbox > 0
      || Vgic.has_deliverable pd.Pd.vgic
      || (match t.cur with Some c -> c == rt | None -> false)
    then None
    else begin
      Sched.dequeue t.sched pd;
      pd.Pd.state <- Pd.Dead;
      pd.Pd.vtimer_generation <- pd.Pd.vtimer_generation + 1;
      reap t rt;
      Some (pd.Pd.name, pd.Pd.priority, Vcpu.uses_vfp pd.Pd.vcpu, rt.main)
    end

(* Graceful degradation, driven by the kernel tick: drain the PL fault
   log into the trace, run the manager's health scan, apply its
   decisions. All of it is pure reads on a healthy fault-free system. *)
let health_tick t =
  let obs = t.z.Zynq.obs in
  List.iter
    (fun (e : Fault_plane.entry) ->
       Obs.incr (Obs.counter obs "fault.injected");
       emit t ~severity:Ktrace.Warn ~category:"fault" ~name:"inject"
         [ ("prr", Ktrace.Int e.Fault_plane.prr);
           ("fault", Ktrace.Str (Fault_plane.fault_name e.Fault_plane.fault)) ])
    (Fault_plane.drain t.z.Zynq.faults);
  List.iter
    (fun (a : Hw_task_manager.action) ->
       Obs.incr
         (Obs.counter obs ("recovery." ^ Hw_task_manager.action_name a));
       match a with
       | Hw_task_manager.Act_kill { client; violations } ->
         (match Int_table.find_opt t.rts client with
          | Some rt when rt.pd.Pd.state <> Pd.Dead ->
            t.probe.Probe.fault_kill <- t.probe.Probe.fault_kill + 1;
            kill t rt
              (Printf.sprintf "hwMMU violation limit (%d)" violations)
          | Some _ | None -> ())
       | Hw_task_manager.Act_retry { prr; _ }
       | Hw_task_manager.Act_recovered { prr; _ }
       | Hw_task_manager.Act_gave_up { prr; _ }
       | Hw_task_manager.Act_reset_hung { prr }
       | Hw_task_manager.Act_quarantine { prr }
       | Hw_task_manager.Act_unquarantine { prr } ->
         emit t ~category:"fault" ~name:"recover"
           [ ("prr", Ktrace.Int prr);
             ("action", Ktrace.Str (Hw_task_manager.action_name a)) ])
    (Hw_task_manager.health_scan t.hwtm);
  run_check t "recovery"

(* Physical interrupt routing: the kernel's IRQ exception path. *)
let rec route_irqs t =
  ignore (Event_queue.run_due t.z.Zynq.queue);
  if Gic.line_asserted t.z.Zynq.gic then begin
    let t0 = Clock.now t.z.Zynq.clock in
    Exec.run_pinned t.z ~priv:true t.kf.kf_irq_entry;
    (match Gic.ack t.z.Zynq.gic with
     | None -> ()
     | Some irq ->
       Gic.eoi t.z.Zynq.gic irq;
       if irq <> Irq_id.private_timer && t.trace <> None then
         emit t ~severity:Ktrace.Debug ~category:"irq" ~name:"taken"
           [ ("irq", Ktrace.Int irq) ];
       if irq = Irq_id.private_timer then health_tick t
       else if irq = Irq_id.devcfg then begin
         match Hw_task_manager.pcap_client t.hwtm with
         | Some cid -> inject_charged t cid irq
         | None -> ()
       end
       else begin
         match Irq_id.pl_index irq with
         | Some i ->
           (match Prr_controller.irq_owner t.z.Zynq.prrc i with
            | Some prr_id ->
              (match Hw_task_manager.prr_client t.hwtm prr_id with
               | Some cid ->
                 inject_charged t cid irq;
                 Stats.add t.probe.Probe.pl_irq_entry
                   (float_of_int (Clock.now t.z.Zynq.clock - t0));
                 Obs.sample t.z.Zynq.obs ~component:"pl_irq" ~key:cid
                   ~cycles:(Clock.now t.z.Zynq.clock - t0);
                 (* Guest-visible submit→completion-vIRQ turnaround,
                    keyed by the owning VM (SLO tail plane). *)
                 Obs.sample t.z.Zynq.obs ~component:"virq_turnaround"
                   ~key:cid
                   ~cycles:
                     (Clock.now t.z.Zynq.clock
                      - (Prr_controller.prr t.z.Zynq.prrc prr_id)
                          .Prr.submitted_at)
               | None -> ())
            | None -> ())
         | None -> ()
       end);
    route_irqs t
  end

(* ASID over-commit: give an incoming sentinel-tagged PD a real tag,
   stealing one round-robin from an idle holder when the space is
   exhausted. Populations within the 254-tag space never reach the
   steal path, so tag-resident workloads keep their exact behaviour. *)
let ensure_asid t (pd : Pd.t) =
  if pd.Pd.asid = 0 then begin
    match Kmem.try_alloc_asid t.kmem ~pd:pd.Pd.id with
    | Some a -> pd.Pd.asid <- a
    | None ->
      let a, victim = Kmem.steal_asid t.kmem ~pd:pd.Pd.id in
      (match Int_table.find_opt t.pd_tbl victim with
       | Some victim -> victim.Pd.asid <- 0
       | None -> ());
      (* The stolen tag's stale translations must go before it names a
         new address space; charged as kernel bookkeeping. *)
      ignore (Tlb.flush_asid t.z.Zynq.tlb a);
      Clock.advance t.z.Zynq.clock Costs.asid_steal;
      pd.Pd.asid <- a;
      t.asid_steals <- t.asid_steals + 1;
      (* SMP: remote TLBs may hold translations tagged with the stolen
         ASID — post an IPI-driven shootdown to every other pCPU (the
         barrier applies it there before the tag can be reused). *)
      (match t.smp with
       | Some h ->
         Exec.run_pinned t.z ~priv:true t.kf.kf_ipi_send;
         h.sh_asid_steal ~asid:a
       | None -> ())
  end

let switch_to t rt =
  match t.cur with
  | Some c when c == rt -> ()
  | _ ->
    let t0 = Clock.now t.z.Zynq.clock in
    let sp =
      Obs.open_span t.z.Zynq.obs ~component:"world_switch" ~key:rt.pd.Pd.id
        ~at:t0
    in
    (match t.cur with
     | Some old when old.pd.Pd.state <> Pd.Dead ->
       let v = old.pd.Pd.vcpu in
       Exec.run_pinned t.z ~priv:true
         (slot_pin t.kf.kf_save (Vcpu.slot v)
            (fun v -> Exec.pin1 (Vcpu.save_fp v)) v)
     | Some _ | None -> ());
    Exec.run_pinned t.z ~priv:true t.kf.kf_sched_pick;
    (* Mask the previous guest's sources, unmask the successor's. *)
    let guest_enabled =
      List.filter
        (fun i -> i < Irq_id.max_irq && not (int_mem i kernel_irqs))
        (Vgic.enabled_sources rt.pd.Pd.vgic)
    in
    Gic.set_enabled_mask t.z.Zynq.gic ~keep:kernel_irqs ~enable:guest_enabled;
    (match t.cfg.tlb_policy with
     | `Asid -> ()
     | `Flush_all ->
       ignore (Tlb.flush_all t.z.Zynq.tlb);
       Clock.advance t.z.Zynq.clock 80);
    (let v = rt.pd.Pd.vcpu in
     Exec.run_pinned t.z ~priv:true
       (slot_pin t.kf.kf_restore (Vcpu.slot v)
          (fun v -> Exec.pin1 (Vcpu.restore_fp v)) v));
    ensure_asid t rt.pd;
    Kmem.activate_guest t.kmem rt.pd;
    (match t.cfg.vfp_policy with
     | `Active ->
       let from = Option.map (fun c -> c.pd.Pd.vcpu) t.cur in
       switch_vfp t ~from ~to_:rt.pd.Pd.vcpu;
       t.vfp_owner <- Some (rt.pd.Pd.id, rt.pd.Pd.vcpu)
     | `Lazy ->
       let owned =
         match t.vfp_owner with
         | Some (id, _) -> id = rt.pd.Pd.id
         | None -> false
       in
       if Vcpu.uses_vfp rt.pd.Pd.vcpu && not owned then begin
         (* First VFP use after the switch traps and banks are swapped. *)
         switch_vfp t ~from:(Option.map snd t.vfp_owner) ~to_:rt.pd.Pd.vcpu;
         t.vfp_owner <- Some (rt.pd.Pd.id, rt.pd.Pd.vcpu)
       end);
    if t.trace <> None then
      emit t ~category:"sched" ~name:"vm-switch"
        [ ("from",
           match t.cur with
           | Some c -> Ktrace.Int c.pd.Pd.id
           | None -> Ktrace.Str "boot");
          ("to", Ktrace.Int rt.pd.Pd.id) ];
    t.cur <- Some rt;
    rt.slice_start <- Clock.now t.z.Zynq.clock;
    Obs.close_span t.z.Zynq.obs sp ~at:(Clock.now t.z.Zynq.clock);
    Obs.incr t.ki.ko_switches;
    Stats.add t.probe.Probe.vm_switch
      (float_of_int (Clock.now t.z.Zynq.clock - t0));
    run_check t "world_switch"

let rec arm_vtimer t (pd : Pd.t) interval gen =
  ignore
    (Event_queue.schedule_after t.z.Zynq.queue interval (fun () ->
         if pd.Pd.vtimer_generation = gen && pd.Pd.state <> Pd.Dead then begin
           Vgic.set_pending pd.Pd.vgic Irq_id.private_timer;
           unblock t pd;
           arm_vtimer t pd interval gen
         end))

(* Walk a guest buffer page by page, applying [f phys len] per piece. *)
let for_each_page t (pd : Pd.t) vaddr len f =
  let rec loop va remaining =
    if remaining <= 0 then Ok ()
    else
      let pa = Kmem.guest_translate t.kmem pd va in
      if pa < 0 then Error "address not mapped"
      else
        let chunk = Int.min remaining (Addr.page_size - Addr.page_offset va) in
        f pa chunk;
        loop (va + chunk) (remaining - chunk)
  in
  loop vaddr len

let in_linear_guest_area vaddr len =
  vaddr >= Guest_layout.kernel_base && len >= 0
  && vaddr + len <= Guest_layout.page_region_base

(* Charged word access to the ring pages: the kernel reaches them at
   their physical home (the rings live in the linearly-mapped guest
   window), and every header/descriptor/CQE word is real data-cache
   traffic whose residency decays with VM count. *)
let kread_u32 t pa =
  ignore (Hierarchy.access t.z.Zynq.hier Hierarchy.Load pa);
  Phys_mem.read_word t.z.Zynq.mem pa

let kwrite_u32 t pa v =
  ignore (Hierarchy.access t.z.Zynq.hier Hierarchy.Store pa);
  Phys_mem.write_word t.z.Zynq.mem pa v

(* Word runs of the same traffic: with the fast path on, one
   [Hierarchy.access_words] charge per run (exact, see its contract);
   off, the scalar loop. *)
let kread_words t pa buf off n =
  if Fastpath.enabled t.z.Zynq.fast then begin
    ignore (Hierarchy.access_words t.z.Zynq.hier Hierarchy.Load pa n);
    Phys_mem.read_words t.z.Zynq.mem pa buf off n
  end
  else
    for k = 0 to n - 1 do
      buf.(off + k) <- kread_u32 t (pa + (4 * k))
    done

let kwrite_words t pa buf off n =
  if Fastpath.enabled t.z.Zynq.fast then begin
    ignore (Hierarchy.access_words t.z.Zynq.hier Hierarchy.Store pa n);
    Phys_mem.write_words t.z.Zynq.mem pa buf off n
  end
  else
    for k = 0 to n - 1 do
      kwrite_u32 t (pa + (4 * k)) buf.(off + k)
    done

let u32_sub a b = (a - b) land 0xFFFFFFFF

(* An interface page backs exactly one held task: aliasing two tasks
   on one vaddr would leave the survivor's mapping dangling when either
   is released or reclaimed. *)
let rec iface_taken ~(task : Bitstream.id) ~(vaddr : Addr.t) = function
  | [] -> false
  | (t', _, va) :: rest ->
    (va = vaddr && t' <> task) || iface_taken ~task ~vaddr rest

(* The allocation-routine body shared by ABI v1 [Hw_task_request] and
   ABI v2 request descriptors: validation, the Fig 7 allocation call.
   Runs in manager context; the caller owns entry/exit and timing, so
   the v1 path is cycle-identical to its pre-ring shape. *)
let exec_job t (pd : Pd.t) ~task ~iface_vaddr ~data_vaddr ~data_len
    ~want_irq =
  let resp =
    if data_len < Hw_task_manager.reserved_bytes then
      Hyper.R_error "data section too small"
    else if not (in_linear_guest_area data_vaddr data_len) then
      Hyper.R_error "data section must lie in the linear guest area"
    else if iface_taken ~task ~vaddr:iface_vaddr pd.Pd.iface_mappings then
      Hyper.R_error "interface vaddr already in use by another task"
    else
      let data_phys = Kmem.guest_translate t.kmem pd data_vaddr in
      if data_phys < 0 then Hyper.R_error "data section not mapped"
      else begin
        (* A guest re-requesting with the same window keeps its boxed
           data section: no allocation on the steady-state path. *)
        (match pd.Pd.data_section with
         | Some (va, len, pa)
           when va = data_vaddr && len = data_len && pa = data_phys -> ()
         | Some _ | None ->
           pd.Pd.data_section <- Some (data_vaddr, data_len, data_phys));
        let r =
          Hw_task_manager.request t.hwtm ~client_id:pd.Pd.id
            ~data_base:data_phys ~data_len ~iface_vaddr ~task ~want_irq
        in
        Hyper.R_hw
          { status = r.Hw_task_manager.status;
            irq =
              (match r.Hw_task_manager.irq with
               | Some i -> Some (Irq_id.pl i)
               | None -> None);
            prr = r.Hw_task_manager.prr }
      end
  in
  if t.trace <> None then
    emit t ~severity:Ktrace.Debug ~category:"hwtm" ~name:"job"
      [ ("pd", Ktrace.Int pd.Pd.id);
        ("op", Ktrace.Str "request");
        ("task", Ktrace.Int task);
        ("status",
         Ktrace.Str
           (match resp with
            | Hyper.R_hw { status; _ } -> Hyper.hw_status_name status
            | _ -> "error")) ];
  resp

(* Release body shared by ABI v1 [Hw_task_release] and ABI v2 release
   descriptors. *)
let exec_release t (pd : Pd.t) ~task =
  let r = Hw_task_manager.release t.hwtm ~client_id:pd.Pd.id ~task in
  if t.trace <> None then
    emit t ~severity:Ktrace.Debug ~category:"hwtm" ~name:"job"
      [ ("pd", Ktrace.Int pd.Pd.id);
        ("op", Ktrace.Str "release");
        ("task", Ktrace.Int task);
        ("status",
         Ktrace.Str (match r with Ok () -> "success" | Error _ -> "error")) ];
  r

(* Manager exit, shared by the v1 trap and the v2 doorbell: the
   per-slot exit stub, then back into the caller's address space. *)
let mgr_exit t (pd : Pd.t) =
  Exec.run_pinned t.z ~priv:true
    (slot_pin t.kf.kf_mgr_exit (Vcpu.slot pd.Pd.vcpu)
       (fun (pd : Pd.t) ->
         let sa_base, _ = Vcpu.save_area pd.Pd.vcpu in
         Exec.pin1
           (mk_fp Klayout.mgr_exit_stub "hwtm_exit"
              ~reads:[ { Exec.base = sa_base; len = 160 } ]
              ~base_cycles:Costs.mgr_exit))
       pd);
  Kmem.activate_guest t.kmem pd

(* The Hardware Task Manager invocation: entry / execution / exit are
   separately timed, matching Table III's three components. *)
let handle_hw_task_request t rt ~entry_start ~task ~iface_vaddr ~data_vaddr
    ~data_len ~want_irq =
  let pd = rt.pd in
  let clock = t.z.Zynq.clock in
  let obs = t.z.Zynq.obs in
  (* Entry: portal dispatch + switch into the manager's space. *)
  if t.trace <> None then
    emit t ~severity:Ktrace.Debug ~category:"hwtm" ~name:"entry"
      [ ("pd", Ktrace.Int pd.Pd.id) ];
  let sp_entry =
    Obs.open_span obs ~component:"htm_entry" ~key:pd.Pd.id ~at:entry_start
  in
  Kmem.activate_manager t.kmem ~asid:mgr_asid;
  Exec.run_pinned t.z ~priv:true t.kf.kf_mgr_entry;
  Obs.close_span obs sp_entry ~at:(Clock.now clock);
  Stats.add t.probe.Probe.hwtm_entry
    (float_of_int (Clock.now clock - entry_start));
  (* Execution: the Fig 7 allocation routine. *)
  let exec_start = Clock.now clock in
  let sp_exec =
    Obs.open_span obs ~component:"htm_exec" ~key:pd.Pd.id ~at:exec_start
  in
  let resp =
    exec_job t pd ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq
  in
  Obs.close_span obs sp_exec ~at:(Clock.now clock);
  Stats.add t.probe.Probe.hwtm_exec
    (float_of_int (Clock.now clock - exec_start));
  (* Exit: back to the caller's space. *)
  let exit_start = Clock.now clock in
  let sp_exit =
    Obs.open_span obs ~component:"htm_exit" ~key:pd.Pd.id ~at:exit_start
  in
  mgr_exit t pd;
  Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
  Obs.close_span obs sp_exit ~at:(Clock.now clock);
  Stats.add t.probe.Probe.hwtm_exit
    (float_of_int (Clock.now clock - exit_start));
  if t.trace <> None then
    emit t ~severity:Ktrace.Debug ~category:"hwtm" ~name:"exit"
      [ ("pd", Ktrace.Int pd.Pd.id) ];
  resp

let hw_status_code = function
  | Hyper.Hw_success -> 0
  | Hyper.Hw_reconfig -> 1
  | Hyper.Hw_busy -> 2
  | Hyper.Hw_bad_task -> 3
  | Hyper.Hw_fault -> 4
  | Hyper.Hw_denied -> 6 (* 5 is err_status_code in ring CQEs *)

let err_status_code = 5

(* ABI v2 doorbell: drain every descriptor the guest has published,
   in order, through one manager entry/exit — the batched counterpart
   of [handle_hw_task_request]. Three phases: (A) in guest context,
   observe the published tail and fetch the batch; (B) one switch into
   the manager's space, executing each descriptor through the same
   [exec_job]/[exec_release] bodies as ABI v1; (C) back in guest
   context, write completion entries and inject the moderated
   completion vIRQs (ceil(batch/budget), one injection charge each). *)
let handle_ring_doorbell t rt ~entry_start =
  let pd = rt.pd in
  let clock = t.z.Zynq.clock in
  let obs = t.z.Zynq.obs in
  match Int_table.find_opt t.rings pd.Pd.id with
  | None ->
    Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
    Hyper.R_error "ring: not set up"
  | Some r ->
    t.ring_doorbells <- t.ring_doorbells + 1;
    (* Phase A: header reads + batch fetch, all charged word traffic. *)
    Exec.run_pinned t.z ~priv:true t.kf.kf_ring_drain;
    let new_tail = kread_u32 t r.r_sq_phys in
    let cq_guest_head = kread_u32 t (r.r_cq_phys + 4) in
    let fresh = u32_sub new_tail r.r_tail in
    let in_flight = u32_sub r.r_tail r.r_head in
    if fresh + in_flight > r.r_entries then begin
      Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
      Hyper.R_error "ring: bad submission tail"
    end
    else if u32_sub r.r_head cq_guest_head > r.r_entries then begin
      (* The guest's CQ head must lie in [r_head - entries, r_head];
         anything else would make the CQ room below negative. *)
      Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
      Hyper.R_error "ring: bad completion head"
    end
    else begin
      t.ring_enqueued_total <- t.ring_enqueued_total + fresh;
      r.r_tail <- new_tail;
      (* CQ backpressure: completions the guest has not consumed cap
         the batch; the excess stays in flight for a later doorbell. *)
      let cq_room = r.r_entries - u32_sub r.r_head cq_guest_head in
      let batch = Int.min (u32_sub r.r_tail r.r_head) cq_room in
      if batch = 0 then begin
        t.ring_empty_doorbells <- t.ring_empty_doorbells + 1;
        Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
        Hyper.R_int 0
      end
      else begin
        let mask = r.r_entries - 1 in
        let desc = t.drain_desc and cqe = t.drain_cqe in
        for k = 0 to batch - 1 do
          let d =
            r.r_sq_phys + Guest_layout.ring_hdr_size
            + (((r.r_head + k) land mask) * Guest_layout.ring_desc_size)
          in
          Clock.advance clock Costs.ring_desc_validate;
          kread_words t d desc (k * desc_words) desc_words
        done;
        (* Phase B: one manager entry for the whole batch. *)
        let sp =
          Obs.open_span obs ~component:"ring_drain" ~key:pd.Pd.id
            ~at:entry_start
        in
        Kmem.activate_manager t.kmem ~asid:mgr_asid;
        Exec.run_pinned t.z ~priv:true t.kf.kf_mgr_entry;
        for k = 0 to batch - 1 do
          let b = k * desc_words and c = k * cqe_words in
          let task = desc.(b + 1) in
          cqe.(c) <- desc.(b + 6);
          cqe.(c + 1) <- err_status_code;
          cqe.(c + 2) <- 0;
          cqe.(c + 3) <- 0;
          match desc.(b) with
          | 0 ->
            (match
               exec_job t pd ~task ~iface_vaddr:desc.(b + 2)
                 ~data_vaddr:desc.(b + 3) ~data_len:desc.(b + 4)
                 ~want_irq:(desc.(b + 5) land 1 = 1)
             with
             | Hyper.R_hw { status; irq; prr } ->
               cqe.(c + 1) <- hw_status_code status;
               cqe.(c + 2) <- (match prr with Some p -> p + 1 | None -> 0);
               cqe.(c + 3) <- (match irq with Some i -> i + 1 | None -> 0)
             | _ -> ())
          | 1 ->
            (match exec_release t pd ~task with
             | Ok () -> cqe.(c + 1) <- 0
             | Error _ -> ())
          | _ -> ()
        done;
        (* Phase C: back to the guest; CQE stores + header write-back. *)
        mgr_exit t pd;
        Exec.run_pinned t.z ~priv:true t.kf.kf_ring_complete;
        (* CQEs fill consecutive slots, so the batch is one word run up
           to the ring's end and a second one from its start if it
           wraps: the same word stores, in the same order, as CQE by
           CQE. *)
        Clock.advance clock (batch * Costs.ring_cqe_write);
        let first = r.r_head land mask in
        let upto_end = Int.min batch (r.r_entries - first) in
        let cq_slots = r.r_cq_phys + Guest_layout.ring_hdr_size in
        kwrite_words t
          (cq_slots + (first * Guest_layout.ring_cqe_size))
          cqe 0 (upto_end * cqe_words);
        if batch > upto_end then
          kwrite_words t cq_slots cqe (upto_end * cqe_words)
            ((batch - upto_end) * cqe_words);
        r.r_head <- (r.r_head + batch) land 0xFFFFFFFF;
        t.ring_completed_total <- t.ring_completed_total + batch;
        kwrite_u32 t (r.r_sq_phys + 4) r.r_head;
        kwrite_u32 t r.r_cq_phys r.r_head;
        (* Completion-vIRQ moderation: one injection per [budget]
           completions (0 = pure polling, no vIRQ). *)
        let virqs =
          if r.r_budget = 0 then 0
          else (batch + r.r_budget - 1) / r.r_budget
        in
        for _ = 1 to virqs do inject_charged t pd.Pd.id ring_virq done;
        t.ring_virqs <- t.ring_virqs + virqs;
        if batch > t.ring_max_batch then t.ring_max_batch <- batch;
        Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
        Obs.close_span obs sp ~at:(Clock.now clock);
        Hyper.R_int batch
      end
    end

let handle_simple t rt req =
  let pd = rt.pd in
  let z = t.z in
  let hier = z.Zynq.hier in
  Exec.run_pinned t.z ~priv:true
    (Array.unsafe_get t.kf.kf_handlers (Hyper.number req - 1));
  match req with
  | Hyper.Cache_clean_range { vaddr; len } ->
    (match
       for_each_page t pd vaddr len (fun pa n ->
           ignore (Hierarchy.clean_dcache_range hier pa n))
     with
     | Ok () -> Hyper.R_unit
     | Error e -> Hyper.R_error e)
  | Hyper.Cache_invalidate_range { vaddr; len } ->
    (match
       for_each_page t pd vaddr len (fun pa n ->
           ignore (Hierarchy.invalidate_dcache_range hier pa n))
     with
     | Ok () -> Hyper.R_unit
     | Error e -> Hyper.R_error e)
  | Hyper.Cache_flush_all ->
    ignore (Hierarchy.clean_invalidate_all hier);
    Hyper.R_unit
  | Hyper.Tlb_flush_asid ->
    ignore (Tlb.flush_asid z.Zynq.tlb pd.Pd.asid);
    Hyper.R_unit
  | Hyper.Tlb_flush_all ->
    ignore (Tlb.flush_all z.Zynq.tlb);
    Hyper.R_unit
  | Hyper.Irq_enable irq ->
    if irq < 0 || irq >= Irq_id.max_irq then Hyper.R_error "bad irq"
    else begin
      Vgic.register pd.Pd.vgic irq;
      Vgic.enable pd.Pd.vgic irq;
      Hyper.R_unit
    end
  | Hyper.Irq_disable irq ->
    if Vgic.registered pd.Pd.vgic irq then begin
      Vgic.disable pd.Pd.vgic irq;
      Hyper.R_unit
    end
    else Hyper.R_error "irq not registered"
  | Hyper.Irq_set_entry a ->
    Vgic.set_entry pd.Pd.vgic a;
    Hyper.R_unit
  | Hyper.Irq_eoi _ -> Hyper.R_unit (* guest-local state, paper §III-B *)
  | Hyper.Vtimer_config { interval } ->
    if interval <= 0 then Hyper.R_error "bad interval"
    else begin
      pd.Pd.vtimer_generation <- pd.Pd.vtimer_generation + 1;
      pd.Pd.vtimer_interval <- Some interval;
      arm_vtimer t pd interval pd.Pd.vtimer_generation;
      Hyper.R_unit
    end
  | Hyper.Vtimer_stop ->
    pd.Pd.vtimer_generation <- pd.Pd.vtimer_generation + 1;
    pd.Pd.vtimer_interval <- None;
    Hyper.R_unit
  | Hyper.Map_insert { vaddr; gphys_off; user } ->
    (match Kmem.guest_map_page t.kmem pd ~vaddr ~gphys_off ~user with
     | Ok () -> Hyper.R_unit
     | Error e -> Hyper.R_error e)
  | Hyper.Map_remove { vaddr } ->
    (match Kmem.guest_unmap_page t.kmem pd ~vaddr with
     | Ok () -> Hyper.R_unit
     | Error e -> Hyper.R_error e)
  | Hyper.Pt_alloc_l2 { vaddr } ->
    (try
       Page_table.ensure_l2 pd.Pd.pt ~virt:vaddr ~domain:Kmem.dom_guest_user;
       Clock.advance z.Zynq.clock Costs.pt_update;
       Hyper.R_unit
     with Invalid_argument e -> Hyper.R_error e)
  | Hyper.Set_guest_mode m ->
    Vcpu.set_guest_mode pd.Pd.vcpu m;
    Kmem.set_guest_dacr t.kmem m;
    Hyper.R_unit
  | Hyper.Priv_reg_read r ->
    Hyper.R_int (Trap_emulate.emulate z pd.Pd.vcpu (Hyper.Mrc r))
  | Hyper.Priv_reg_write (r, v) ->
    Hyper.R_int (Trap_emulate.emulate z pd.Pd.vcpu (Hyper.Mcr (r, v)))
  | Hyper.Uart_write s ->
    Uart.write_string z.Zynq.uart s;
    Clock.advance z.Zynq.clock (String.length s * Costs.uart_per_byte);
    Hyper.R_unit
  | Hyper.Sd_read { block } ->
    (try
       let b = Sd_card.read_block z.Zynq.sd block in
       Clock.advance z.Zynq.clock Sd_card.transfer_cycles;
       Hyper.R_bytes b
     with Invalid_argument e -> Hyper.R_error e)
  | Hyper.Sd_write { block; data } ->
    (try
       Sd_card.write_block z.Zynq.sd block data;
       Clock.advance z.Zynq.clock Sd_card.transfer_cycles;
       Hyper.R_unit
     with Invalid_argument e -> Hyper.R_error e)
  | Hyper.Hw_task_release { task } ->
    (match exec_release t pd ~task with
     | Ok () -> Hyper.R_unit
     | Error e -> Hyper.R_error e)
  | Hyper.Hw_task_status { task } ->
    let ready, consistent =
      Hw_task_manager.poll t.hwtm ~client_id:pd.Pd.id ~task
    in
    let faults = Hw_task_manager.faults t.hwtm ~client_id:pd.Pd.id ~task in
    Hyper.R_status { prr_ready = ready; consistent; faults }
  | Hyper.Vm_send { dest; payload } ->
    (match Int_table.find_opt t.pd_tbl dest with
     | None ->
       (* SMP: the destination may live on another pCPU. A message
          IPI is posted and delivered at the next epoch barrier by
          the owner; send is optimistic (fire-and-forget, like local
          sends whose receiver later dies). *)
       (match t.smp with
        | Some h when h.sh_vm_send ~dest ~sender:pd.Pd.id ~payload ->
          Exec.run_pinned t.z ~priv:true t.kf.kf_ipi_send;
          Hyper.R_unit
        | Some _ | None -> Hyper.R_error "no such PD")
     | Some target ->
       if target.Pd.state = Pd.Dead then Hyper.R_error "PD is dead"
       else begin
         match Ipc.send target.Pd.inbox ~sender:pd.Pd.id payload with
         | Error e -> Hyper.R_error e
         | Ok () ->
           charge_ipc_copy t (Array.length payload);
           Vgic.set_pending target.Pd.vgic ipc_doorbell_irq;
           unblock t target;
           Hyper.R_unit
       end)
  | Hyper.Vm_recv ->
    (match Ipc.recv pd.Pd.inbox with
     | None -> Hyper.R_msg None
     | Some m ->
       charge_ipc_copy t (Array.length m.Ipc.payload);
       Hyper.R_msg (Some (m.Ipc.sender, m.Ipc.payload)))
  | Hyper.Ring_setup { entries; cvirq_budget } ->
    if entries < 1 || entries > Guest_layout.ring_max_entries then
      Hyper.R_error "ring: bad entry count"
    else if cvirq_budget < 0 then Hyper.R_error "ring: bad vIRQ budget"
    else begin
      let e = ref 1 in
      while !e < entries do e := !e * 2 done;
      let entries = !e in
      Exec.run_pinned t.z ~priv:true t.kf.kf_ring_setup;
      let sq_phys =
        Guest_layout.to_phys ~phys_base:pd.Pd.phys_base
          Guest_layout.ring_sq_base
      and cq_phys =
        Guest_layout.to_phys ~phys_base:pd.Pd.phys_base
          Guest_layout.ring_cq_base
      in
      (* Both 64 B headers are zeroed (charged stores); re-setup of a
         live ring forfeits its undrained descriptors as reclaimed so
         conservation stays closed. *)
      (match Int_table.find_opt t.rings pd.Pd.id with
       | Some r ->
         t.ring_reclaimed_total <-
           t.ring_reclaimed_total + u32_sub r.r_tail r.r_head
       | None -> ());
      for i = 0 to (Guest_layout.ring_hdr_size / 4) - 1 do
        kwrite_u32 t (sq_phys + (4 * i)) 0;
        kwrite_u32 t (cq_phys + (4 * i)) 0
      done;
      Int_table.replace t.rings pd.Pd.id
        { r_pd = pd.Pd.id; r_entries = entries; r_budget = cvirq_budget;
          r_sq_phys = sq_phys; r_cq_phys = cq_phys; r_tail = 0; r_head = 0 };
      Vgic.register pd.Pd.vgic ring_virq;
      Vgic.enable pd.Pd.vgic ring_virq;
      Hyper.R_ring
        { sq_vaddr = Guest_layout.ring_sq_base;
          cq_vaddr = Guest_layout.ring_cq_base; entries }
    end
  (* [handle_hyper] routes these two to their own handlers first. *)
  | Hyper.Ring_doorbell -> assert false
  | Hyper.Hw_task_request _ -> assert false

let handle_hyper t rt req =
  t.hypercall_count <- t.hypercall_count + 1;
  let n = Hyper.number req - 1 in
  if t.trace <> None then
    emit t ~severity:Ktrace.Debug ~category:"hyper" ~name:(Hyper.name req)
      [ ("pd", Ktrace.Int rt.pd.Pd.id) ];
  let clock = t.z.Zynq.clock in
  let obs = t.z.Zynq.obs in
  Obs.incr (Array.unsafe_get t.ki.ko_hyper n);
  let t0 = Clock.now clock in
  let sp = Obs.open_span obs ~component:"hypercall" ~key:rt.pd.Pd.id ~at:t0 in
  (* Trap entry + dispatch: one fused pinned trace. *)
  Exec.run_pinned t.z ~priv:true t.kf.kf_prologue;
  let resp =
    match req with
    | Hyper.Hw_task_request { task; iface_vaddr; data_vaddr; data_len;
                              want_irq } ->
      handle_hw_task_request t rt ~entry_start:t0 ~task ~iface_vaddr
        ~data_vaddr ~data_len ~want_irq
    | Hyper.Ring_doorbell -> handle_ring_doorbell t rt ~entry_start:t0
    | _ ->
      let r = handle_simple t rt req in
      Exec.run_pinned t.z ~priv:true t.kf.kf_svc_exit;
      r
  in
  Obs.close_span obs sp ~at:(Clock.now clock);
  resp

let account_quantum rt now =
  let elapsed = now - rt.slice_start in
  let pd = rt.pd in
  pd.Pd.quantum_left <- Int.max 1 (pd.Pd.quantum_left - elapsed);
  rt.slice_start <- now

let rec execute t rt ex ~until =
  match ex with
  | X_done -> kill t rt "guest main returned"
  | X_crash e ->
    t.crash_count <- t.crash_count + 1;
    kill t rt (Printexc.to_string e)
  | X_hyper (req, k) ->
    let resp = handle_hyper t rt req in
    execute t rt (Effect.Deep.continue k resp) ~until
  | X_und (instr, k) ->
    Exec.run_pinned t.z ~priv:true t.kf.kf_und_trap;
    let v = Trap_emulate.emulate t.z rt.pd.Pd.vcpu instr in
    execute t rt (Effect.Deep.continue k v) ~until
  | X_idle k ->
    route_irqs t;
    if rt.pd.Pd.state = Pd.Dead then
      () (* killed by the health tick inside route_irqs: drop the fiber *)
    else if Vgic.has_deliverable rt.pd.Pd.vgic then
      execute t rt (Effect.Deep.continue k (drain rt)) ~until
    else begin
      account_quantum rt (Clock.now t.z.Zynq.clock);
      rt.pd.Pd.state <- Pd.Blocked;
      Sched.dequeue t.sched rt.pd;
      rt.saved <- Some k
    end
  | X_pause k ->
    (* Even an empty guest loop executes instructions: charge a
       minimal cost so simulated time always progresses (liveness). *)
    Clock.advance t.z.Zynq.clock 20;
    route_irqs t;
    if rt.pd.Pd.state = Pd.Dead then
      () (* killed by the health tick inside route_irqs: drop the fiber *)
    else
    let now = Clock.now t.z.Zynq.clock in
    let pd = rt.pd in
    let elapsed = now - rt.slice_start in
    let higher =
      match Sched.pick t.sched with
      | Some top -> top.Pd.priority > pd.Pd.priority
      | None -> false
    in
    if now >= until then rt.saved <- Some k
    else if higher then begin
      (* Preemption: preserve the remaining quantum (paper §III-D). *)
      account_quantum rt now;
      rt.saved <- Some k
    end
    else if elapsed >= pd.Pd.quantum_left then begin
      pd.Pd.quantum_left <- pd.Pd.quantum;
      rt.slice_start <- now;
      Sched.rotate t.sched pd;
      match Sched.pick t.sched with
      | Some next when next.Pd.id <> pd.Pd.id -> rt.saved <- Some k
      | Some _ | None -> execute t rt (Effect.Deep.continue k (drain rt)) ~until
    end
    else execute t rt (Effect.Deep.continue k (drain rt)) ~until

(* One dispatch step of [run] and [run_epoch], which differ only in
   what they do when nothing is runnable. *)
let dispatch t (pd : Pd.t) ~until =
  let rt = Int_table.find t.rts pd.Pd.id in
  switch_to t rt;
  let ex =
    if not rt.started then begin
      rt.started <- true;
      Effect.Deep.match_with rt.main rt.env handler
    end
    else
      match rt.saved with
      | Some k ->
        rt.saved <- None;
        Effect.Deep.continue k (drain rt)
      (* [execute] leaves a started PD either parked in [saved] or
         killed, and a killed PD is never picked. *)
      | None -> assert false
  in
  execute t rt ex ~until

let run t ~until =
  let stop = ref false in
  while (not !stop) && Clock.now t.z.Zynq.clock < until do
    route_irqs t;
    if alive_guests t = 0 then stop := true
    else begin
      match Sched.pick t.sched with
      | Some pd -> dispatch t pd ~until
      | None ->
        (* Everything is blocked: sleep until the next event fires.
           With none pending the guests are deadlocked and the run
           ends with them still alive. *)
        if not (Zynq.idle_until_next_event t.z) then stop := true
    end
  done

(* One pCPU's slice of a barrier epoch. Differs from [run] in how it
   treats having nothing to do: an SMP node must keep pace with the
   epoch clock even when it has no guests (one may be migrated in, or
   a cross-CPU IPC may wake a blocked one at the barrier), so instead
   of stopping it idles forward — processing events due before
   [until] — and finishes with its clock at (or just past) [until].
   Never sleeps beyond the barrier: events after [until] belong to a
   later epoch, and waking early keeps cross-CPU delivery ordered. *)
let run_epoch t ~until =
  let stop = ref false in
  while (not !stop) && Clock.now t.z.Zynq.clock < until do
    route_irqs t;
    if Clock.now t.z.Zynq.clock >= until then ()
    else begin
      match Sched.pick t.sched with
      | Some pd -> dispatch t pd ~until
      | None ->
        (match Event_queue.next_deadline t.z.Zynq.queue with
         | Some d when d <= until ->
           ignore (Event_queue.advance_until t.z.Zynq.queue d)
         | Some _ | None ->
           Clock.advance_to t.z.Zynq.clock until;
           stop := true)
    end
  done;
  if Clock.now t.z.Zynq.clock < until then
    Clock.advance_to t.z.Zynq.clock until

(* Barrier-time delivery of a cross-CPU [Vm_send]: the receive half of
   the message IPI, charged on the owning pCPU. Mirrors the local
   success path of the [Vm_send] handler. Returns false when the
   destination has died (or its inbox is full) since the send was
   posted — the message is dropped, exactly like a local send whose
   receiver dies before draining its inbox. *)
let deliver_remote_ipc t ~dest ~sender ~payload =
  match Int_table.find_opt t.pd_tbl dest with
  | None -> false
  | Some target ->
    if target.Pd.state = Pd.Dead then false
    else begin
      Exec.run_pinned t.z ~priv:true t.kf.kf_ipi_recv;
      match Ipc.send target.Pd.inbox ~sender payload with
      | Error _ -> false
      | Ok () ->
        charge_ipc_copy t (Array.length payload);
        Vgic.set_pending target.Pd.vgic ipc_doorbell_irq;
        unblock t target;
        true
    end

(* Barrier-time application of a remote ASID shootdown: the receive
   half of the shootdown IPI — drop every local translation tagged
   with the revoked ASID before the stealing pCPU can reuse it. *)
let apply_shootdown t ~asid =
  Exec.run_pinned t.z ~priv:true t.kf.kf_shootdown;
  ignore (Tlb.flush_asid t.z.Zynq.tlb asid)

type ring_stats = {
  rs_enqueued : int;
  rs_completed : int;
  rs_reclaimed : int;
  rs_doorbells : int;
  rs_empty_doorbells : int;
  rs_virqs : int;
  rs_max_batch : int;
  rs_asid_steals : int;
}

let ring_stats t =
  { rs_enqueued = t.ring_enqueued_total;
    rs_completed = t.ring_completed_total;
    rs_reclaimed = t.ring_reclaimed_total;
    rs_doorbells = t.ring_doorbells;
    rs_empty_doorbells = t.ring_empty_doorbells;
    rs_virqs = t.ring_virqs;
    rs_max_batch = t.ring_max_batch;
    rs_asid_steals = t.asid_steals }

type ring_view = {
  rv_pd : int;
  rv_entries : int;
  rv_in_flight : int;
  rv_sq_phys : Addr.t;
}

let ring_views t =
  Int_table.fold
    (fun _ r acc ->
       { rv_pd = r.r_pd; rv_entries = r.r_entries;
         rv_in_flight = u32_sub r.r_tail r.r_head;
         rv_sq_phys = r.r_sq_phys }
       :: acc)
    t.rings []
