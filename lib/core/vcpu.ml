type t = {
  slot : int;
  save_base : Addr.t;
  save_len : int;
  mutable guest_mode : Hyper.guest_mode;
  mutable uses_vfp : bool;
  mutable l2ctrl : int;
}

let create ~pd_id ?slot () =
  let slot = Option.value slot ~default:pd_id in
  let base, len = Klayout.vcpu_save_area slot in
  { slot; save_base = base; save_len = len;
    guest_mode = Hyper.Gm_kernel; uses_vfp = false; l2ctrl = 0 }

let slot t = t.slot
let save_area t = (t.save_base, t.save_len)

let guest_mode t = t.guest_mode
let set_guest_mode t m = t.guest_mode <- m

let uses_vfp t = t.uses_vfp
let set_uses_vfp t b = t.uses_vfp <- b

let l2ctrl t = t.l2ctrl
let set_l2ctrl t v = t.l2ctrl <- v

(* Active set: 16 GP registers + SPSR + timer + CP15 = ~24 words. *)
let active_words = 24

let vm_switch_code =
  let base, len = Klayout.vm_switch in
  { Exec.base; len }

let save_fp t =
  { Exec.label = "vcpu_save";
    code = vm_switch_code;
    reads = [];
    writes = [ { Exec.base = t.save_base; len = active_words * 4 } ];
    base_cycles = Costs.vm_switch_active }

let restore_fp t =
  { Exec.label = "vcpu_restore";
    code = vm_switch_code;
    reads = [ { Exec.base = t.save_base; len = active_words * 4 } ];
    writes = [];
    base_cycles = Costs.vm_switch_active }

(* Lazy set: 32 double-precision VFP registers + FPSCR. *)
let vfp_bytes = (32 * 8) + 4

let vfp_bank t = { Exec.base = t.save_base + 96; len = vfp_bytes }

let vfp_load_fp t =
  Exec.make ~label:"vfp_load" ~code_base:vm_switch_code.Exec.base
    ~code_bytes:vm_switch_code.Exec.len ~reads:[ vfp_bank t ]
    ~base_cycles:Costs.vfp_switch ()

let vfp_store_fp t =
  Exec.make ~label:"vfp_store" ~code_base:vm_switch_code.Exec.base
    ~code_bytes:0 ~writes:[ vfp_bank t ] ()
