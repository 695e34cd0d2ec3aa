type guest_mode = Gm_kernel | Gm_user

type priv_reg = Reg_ttbr | Reg_asid | Reg_counter | Reg_cpuid | Reg_l2ctrl

type priv_instr = Mrc of priv_reg | Mcr of priv_reg * int | Wfi

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
      iface_vaddr : Addr.t;
      data_vaddr : Addr.t;
      data_len : int;
      want_irq : bool;
    }
  | Hw_task_release of { task : Bitstream.id }
  | Hw_task_status of { task : Bitstream.id }
  | Vm_send of { dest : int; payload : int array }
  | Vm_recv
  | Ring_setup of { entries : int; cvirq_budget : int }
  | Ring_doorbell

let abi_version = 2
let hypercall_count_v1 = 25
let hypercall_count_v2 = 27
let hypercall_count = hypercall_count_v2

let number = function
  | Cache_clean_range _ -> 1
  | Cache_invalidate_range _ -> 2
  | Cache_flush_all -> 3
  | Tlb_flush_asid -> 4
  | Tlb_flush_all -> 5
  | Irq_enable _ -> 6
  | Irq_disable _ -> 7
  | Irq_set_entry _ -> 8
  | Irq_eoi _ -> 9
  | Vtimer_config _ -> 10
  | Vtimer_stop -> 11
  | Map_insert _ -> 12
  | Map_remove _ -> 13
  | Pt_alloc_l2 _ -> 14
  | Set_guest_mode _ -> 15
  | Priv_reg_read _ -> 16
  | Priv_reg_write _ -> 17
  | Uart_write _ -> 18
  | Sd_read _ -> 19
  | Sd_write _ -> 20
  | Hw_task_request _ -> 21
  | Hw_task_release _ -> 22
  | Hw_task_status _ -> 23
  | Vm_send _ -> 24
  | Vm_recv -> 25
  | Ring_setup _ -> 26
  | Ring_doorbell -> 27

let version_of r = if number r <= hypercall_count_v1 then 1 else 2

let name = function
  | Cache_clean_range _ -> "cache_clean_range"
  | Cache_invalidate_range _ -> "cache_invalidate_range"
  | Cache_flush_all -> "cache_flush_all"
  | Tlb_flush_asid -> "tlb_flush_asid"
  | Tlb_flush_all -> "tlb_flush_all"
  | Irq_enable _ -> "irq_enable"
  | Irq_disable _ -> "irq_disable"
  | Irq_set_entry _ -> "irq_set_entry"
  | Irq_eoi _ -> "irq_eoi"
  | Vtimer_config _ -> "vtimer_config"
  | Vtimer_stop -> "vtimer_stop"
  | Map_insert _ -> "map_insert"
  | Map_remove _ -> "map_remove"
  | Pt_alloc_l2 _ -> "pt_alloc_l2"
  | Set_guest_mode _ -> "set_guest_mode"
  | Priv_reg_read _ -> "priv_reg_read"
  | Priv_reg_write _ -> "priv_reg_write"
  | Uart_write _ -> "uart_write"
  | Sd_read _ -> "sd_read"
  | Sd_write _ -> "sd_write"
  | Hw_task_request _ -> "hw_task_request"
  | Hw_task_release _ -> "hw_task_release"
  | Hw_task_status _ -> "hw_task_status"
  | Vm_send _ -> "vm_send"
  | Vm_recv -> "vm_recv"
  | Ring_setup _ -> "ring_setup"
  | Ring_doorbell -> "ring_doorbell"

(* One representative value per constructor, in ABI order, split by
   the version that introduced it: v1 is the paper's 25-hypercall ABI
   (numbers 1..25), v2 appends the descriptor-ring pair (26..27).
   A unit test pins each version's enumeration separately. *)
let requests_v1 =
  [ Cache_clean_range { vaddr = 0; len = 0 };
    Cache_invalidate_range { vaddr = 0; len = 0 };
    Cache_flush_all;
    Tlb_flush_asid;
    Tlb_flush_all;
    Irq_enable 0;
    Irq_disable 0;
    Irq_set_entry 0;
    Irq_eoi 0;
    Vtimer_config { interval = 1 };
    Vtimer_stop;
    Map_insert { vaddr = 0; gphys_off = 0; user = false };
    Map_remove { vaddr = 0 };
    Pt_alloc_l2 { vaddr = 0 };
    Set_guest_mode Gm_kernel;
    Priv_reg_read Reg_ttbr;
    Priv_reg_write (Reg_ttbr, 0);
    Uart_write "";
    Sd_read { block = 0 };
    Sd_write { block = 0; data = Bytes.empty };
    Hw_task_request
      { task = 0; iface_vaddr = 0; data_vaddr = 0; data_len = 0;
        want_irq = false };
    Hw_task_release { task = 0 };
    Hw_task_status { task = 0 };
    Vm_send { dest = 0; payload = [||] };
    Vm_recv ]

let requests_v2 =
  [ Ring_setup { entries = 0; cvirq_budget = 0 };
    Ring_doorbell ]

let requests = requests_v1 @ requests_v2

type hw_status =
  | Hw_success
  | Hw_reconfig
  | Hw_busy
  | Hw_bad_task
  | Hw_fault
  | Hw_denied

let hw_status_name = function
  | Hw_success -> "success"
  | Hw_reconfig -> "reconfig"
  | Hw_busy -> "busy"
  | Hw_bad_task -> "bad-task"
  | Hw_fault -> "fault"
  | Hw_denied -> "denied"

type response =
  | R_unit
  | R_int of int
  | R_bytes of Bytes.t
  | R_hw of { status : hw_status; irq : int option; prr : int option }
  | R_msg of (int * int array) option
  | R_status of { prr_ready : bool; consistent : bool; faults : int }
  | R_ring of { sq_vaddr : Addr.t; cq_vaddr : Addr.t; entries : int }
  | R_error of string

type pause_result = { virqs : int list }

type _ Effect.t +=
  | Hypercall : request -> response Effect.t
  | Vm_pause : pause_result Effect.t
  | Vm_idle : pause_result Effect.t
  | Und_trap : priv_instr -> int Effect.t

let hypercall r = Effect.perform (Hypercall r)
let pause () = Effect.perform Vm_pause
let idle () = Effect.perform Vm_idle
let und_trap i = Effect.perform (Und_trap i)

let pp_hw_status ppf s = Format.pp_print_string ppf (hw_status_name s)

let pp_response ppf = function
  | R_unit -> Format.pp_print_string ppf "()"
  | R_int v -> Format.fprintf ppf "%d" v
  | R_bytes b -> Format.fprintf ppf "<%d bytes>" (Bytes.length b)
  | R_hw { status; irq; prr } ->
    Format.fprintf ppf "hw:%a irq:%a prr:%a" pp_hw_status status
      (Format.pp_print_option Format.pp_print_int)
      irq
      (Format.pp_print_option Format.pp_print_int)
      prr
  | R_msg None -> Format.pp_print_string ppf "msg:none"
  | R_msg (Some (src, p)) ->
    Format.fprintf ppf "msg:from=%d len=%d" src (Array.length p)
  | R_status { prr_ready; consistent; faults } ->
    Format.fprintf ppf "status:ready=%b consistent=%b faults=%d"
      prr_ready consistent faults
  | R_ring { sq_vaddr; cq_vaddr; entries } ->
    Format.fprintf ppf "ring:sq=%a cq=%a entries=%d" Addr.pp sq_vaddr
      Addr.pp cq_vaddr entries
  | R_error e -> Format.fprintf ppf "error:%s" e
