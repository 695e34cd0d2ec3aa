type kind = Guest | Service

type state = Runnable | Blocked | Dead

type t = {
  id : int;
  name : string;
  kind : kind;
  priority : int;
  mutable asid : int;
  pt : Page_table.t;
  vcpu : Vcpu.t;
  vgic : Vgic.t;
  phys_base : Addr.t;
  quantum : Cycles.t;
  inbox : Ipc.t;
  mutable state : state;
  mutable quantum_left : Cycles.t;
  mutable data_section : (Addr.t * int * Addr.t) option;
  mutable iface_mappings : (Bitstream.id * int * Addr.t) list;
  mutable vtimer_interval : Cycles.t option;
  mutable vtimer_generation : int;
}

let make ~id ~name ~kind ~priority ~asid ~pt ~phys_base ~quantum ?slot () =
  { id; name; kind; priority; asid; pt;
    vcpu = Vcpu.create ~pd_id:id ?slot ();
    vgic = Vgic.create ~owner:id;
    phys_base; quantum;
    inbox = Ipc.create ();
    state = Runnable;
    quantum_left = quantum;
    data_section = None;
    iface_mappings = [];
    vtimer_interval = None;
    vtimer_generation = 0 }

let is_guest t = t.kind = Guest

let no_iface = -1

(* The interface queries are plain recursions over the list, so the
   hypercall path that asks them allocates nothing. *)
let rec vaddr_in (task : Bitstream.id) = function
  | [] -> no_iface
  | (tid, _, vaddr) :: rest ->
    if tid = task then vaddr else vaddr_in task rest

let iface_vaddr t task = vaddr_in task t.iface_mappings
let holds_iface t task = iface_vaddr t task <> no_iface

(* The list minus [task]'s entry; there is at most one. *)
let rec without (task : Bitstream.id) = function
  | [] -> []
  | ((tid, _, _) as e) :: rest ->
    if tid = task then rest else e :: without task rest

let add_iface t task ~prr ~vaddr =
  (* One entry per task: a re-request replaces, never duplicates. *)
  let rest =
    if holds_iface t task then without task t.iface_mappings
    else t.iface_mappings
  in
  t.iface_mappings <- (task, prr, vaddr) :: rest

let remove_iface t task =
  if holds_iface t task then
    t.iface_mappings <- without task t.iface_mappings
