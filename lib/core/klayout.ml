type range = Addr.t * int

let code = Address_map.kernel_code_base
let data = Address_map.kernel_data_base

(* Code blocks are spaced so that no two paths share a cache line. *)
let svc_entry = (code + 0x0100, 128)
let svc_exit = (code + 0x0200, 96)
let irq_entry = (code + 0x0300, 128)
let und_entry = (code + 0x0400, 128)

let hyper_dispatch = (code + 0x0600, 160)
let vgic_inject = (code + 0x0800, 96)
let vm_switch = (code + 0x0900, 512)
let sched_pick = (code + 0x0C00, 224)
let trap_decode = (code + 0x0D00, 256)
let ipc_copy = (code + 0x0E00, 192)

(* One 256 B block per hypercall handler, ABI numbers 1..25. *)
let handler n =
  if n < 1 || n > Hyper.hypercall_count then
    invalid_arg "Klayout.handler: bad hypercall number";
  (code + 0x1000 + ((n - 1) * 256), 192)

(* ABI v2 ring paths: setup, doorbell drain loop, completion writer.
   Handlers end at [handler hypercall_count]; these sit above them. *)
let ring_setup_stub = (code + 0x3000, 224)
let ring_drain_stub = (code + 0x3100, 256)
let ring_complete_stub = (code + 0x3200, 224)

(* SMP cross-CPU paths: IPI send/receive trampolines and the
   ASID-tagged TLB shootdown handler. Same line-spacing rule. *)
let ipi_send_stub = (code + 0x3300, 160)
let ipi_recv_stub = (code + 0x3400, 192)
let shootdown_stub = (code + 0x3500, 192)

(* Manager service: its code/data sit in their own pages, mapped into
   the manager's address space (identity), distinct from all guests. *)
let mgr_entry_stub = (code + 0x10000, 192)
let mgr_exit_stub = (code + 0x10100, 160)
let mgr_main = (code + 0x10200, 2048)
let mgr_task_table = (data + 0x40000, 1024)
let mgr_prr_table = (data + 0x40400, 512)
let mgr_stack = (data + 0x40600, 1024)

let pd_table = (data + 0x1000, 2048)

let vcpu_save_area i = (data + 0x2000 + (i * 512), 512)
