type t = {
  hwtm_entry : Stats.t;
  hwtm_exec : Stats.t;
  hwtm_exit : Stats.t;
  pl_irq_entry : Stats.t;
  vm_switch : Stats.t;
  mutable fault_kill : int;
  mutable vfp_switch : int;
}

let create () =
  { hwtm_entry = Stats.create (); hwtm_exec = Stats.create ();
    hwtm_exit = Stats.create (); pl_irq_entry = Stats.create ();
    vm_switch = Stats.create (); fault_kill = 0; vfp_switch = 0 }

let reset t =
  List.iter Stats.clear
    [ t.hwtm_entry; t.hwtm_exec; t.hwtm_exit; t.pl_irq_entry; t.vm_switch ];
  t.fault_kill <- 0;
  t.vfp_switch <- 0

type label = t -> Stats.t

let stats t (label : label) = label t
let hwtm_entry t = t.hwtm_entry
let hwtm_exec t = t.hwtm_exec
let hwtm_exit t = t.hwtm_exit
let pl_irq_entry t = t.pl_irq_entry
let vm_switch t = t.vm_switch
