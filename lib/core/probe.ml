type t = {
  samples : (string, Stats.t) Hashtbl.t;
  events : (string, int ref) Hashtbl.t;
}

let create () = { samples = Hashtbl.create 16; events = Hashtbl.create 16 }

(* Pre-resolved handles: the hot paths (world switch, HTM stages, PL
   IRQ routing) resolve their label once and then feed the handle,
   skipping the per-call string hash. [reset] clears entries in place,
   so handles stay live across the warm-up reset. *)
let sample_handle t label =
  match Hashtbl.find_opt t.samples label with
  | Some s -> s
  | None ->
    let s = Stats.create () in
    Hashtbl.replace t.samples label s;
    s

let incr t label =
  match Hashtbl.find_opt t.events label with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace t.events label (ref 1)

let stats t label =
  match Hashtbl.find_opt t.samples label with
  | Some s -> s
  | None -> Stats.create ()

let count t label =
  match Hashtbl.find_opt t.events label with Some r -> !r | None -> 0

let reset t =
  Hashtbl.iter (fun _ s -> Stats.clear s) t.samples;
  Hashtbl.iter (fun _ r -> r := 0) t.events

let hwtm_entry = "hwtm_entry"
let hwtm_exit = "hwtm_exit"
let hwtm_exec = "hwtm_exec"
let pl_irq_entry = "pl_irq_entry"
let vm_switch = "vm_switch"
