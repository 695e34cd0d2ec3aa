type t = {
  enabled : bool array;
  pending : bool array;
  active : bool array;
  priority : int array;
}

let create () =
  { enabled = Array.make Irq_id.max_irq false;
    pending = Array.make Irq_id.max_irq false;
    active = Array.make Irq_id.max_irq false;
    priority = Array.make Irq_id.max_irq 0xF8 }

let check irq =
  if irq < 0 || irq >= Irq_id.max_irq then
    invalid_arg "Gic: IRQ id out of range"

let enable g irq =
  check irq;
  g.enabled.(irq) <- true

let set_priority g irq p =
  check irq;
  g.priority.(irq) <- p

let raise_irq g irq =
  check irq;
  g.pending.(irq) <- true

let clear_pending g irq =
  check irq;
  g.pending.(irq) <- false

let is_pending g irq =
  check irq;
  g.pending.(irq)

(* Highest-priority (lowest value; ties to lowest id) pending enabled
   source that is not already active. *)
let best g =
  let found = ref None in
  for irq = Irq_id.max_irq - 1 downto 0 do
    if g.pending.(irq) && g.enabled.(irq) && not g.active.(irq) then
      match !found with
      | Some b when g.priority.(b) < g.priority.(irq) -> ()
      | Some _ | None -> found := Some irq
  done;
  !found

let line_asserted g = best g <> None

let ack g =
  match best g with
  | None -> None
  | Some irq ->
    g.pending.(irq) <- false;
    g.active.(irq) <- true;
    Some irq

let eoi g irq =
  check irq;
  g.active.(irq) <- false

let set_enabled_mask g ~keep ~enable =
  Array.fill g.enabled 0 (Array.length g.enabled) false;
  List.iter (fun irq -> g.enabled.(irq) <- true) keep;
  List.iter (fun irq -> g.enabled.(irq) <- true) enable

let enabled_list g =
  let out = ref [] in
  for irq = Irq_id.max_irq - 1 downto 0 do
    if g.enabled.(irq) then out := irq :: !out
  done;
  !out
