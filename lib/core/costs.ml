let hypercall_entry = 30
let hypercall_exit = 30
let hypercall_handler = 25

let vm_switch_active = 150
let vfp_switch = 400

let irq_route = 10
let vgic_inject = 8
let sched_pick = 30

let pt_update = 280
let dacr_write = 10
let ttbr_asid_write = 30

let mgr_entry = 60
let mgr_exit = 110

let mgr_exec_base = 7000
let mgr_exec_per_prr = 40
let mgr_reconfig_launch = 400
let mgr_reclaim = 350

let und_decode = 260

let ring_setup = 120
let ring_desc_validate = 18
let ring_cqe_write = 10
let asid_steal = 180

let ipc_per_word = 4
let uart_per_byte = 12

(* SMP control paths (per-CPU kernels coupled at epoch barriers). *)
let ipi_send = 40
let ipi_receive = 60
let tlb_shootdown = 120
let vm_migrate = 400
