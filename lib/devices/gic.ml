(* [deliverable] is a bitmask, 32 sources per word, of the sources
   that are pending, enabled and not active: the only ones arbitration
   can pick. Every mutator keeps it exact, so the nIRQ line tests a
   few words and a read of ICCIAR takes its lowest set bit instead of
   scanning all the sources. *)
type t = {
  enabled : bool array;
  pending : bool array;
  active : bool array;
  deliverable : int array;
}

let words = (Irq_id.max_irq + 31) / 32

let create () =
  { enabled = Array.make Irq_id.max_irq false;
    pending = Array.make Irq_id.max_irq false;
    active = Array.make Irq_id.max_irq false;
    deliverable = Array.make words 0 }

let check irq =
  if irq < 0 || irq >= Irq_id.max_irq then
    invalid_arg "Gic: IRQ id out of range"

(* Set one of [irq]'s three flags, keeping [deliverable] exact. *)
let set g flags irq v =
  if flags.(irq) <> v then begin
    flags.(irq) <- v;
    let w = irq lsr 5 and bit = 1 lsl (irq land 31) in
    if g.pending.(irq) && g.enabled.(irq) && not g.active.(irq) then
      g.deliverable.(w) <- g.deliverable.(w) lor bit
    else g.deliverable.(w) <- g.deliverable.(w) land lnot bit
  end

let enable g irq =
  check irq;
  set g g.enabled irq true

let raise_irq g irq =
  check irq;
  set g g.pending irq true

let is_pending g irq =
  check irq;
  g.pending.(irq)

(* Bit index of a power of two below 2^32 (de Bruijn multiply). *)
let bit_index =
  let table =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27;
       13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]
  in
  fun b -> table.(((b * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)

(* The lowest-id deliverable source (every source has the reset
   priority, so arbitration is by id); -1 when there is none. *)
let best g =
  let rec go w =
    if w = words then -1
    else
      let m = g.deliverable.(w) in
      if m = 0 then go (w + 1) else (w lsl 5) + bit_index (m land -m)
  in
  go 0

let rec any_set d w = w < words && (d.(w) <> 0 || any_set d (w + 1))

let line_asserted g = any_set g.deliverable 0

let ack g =
  match best g with
  | -1 -> None
  | irq ->
    set g g.pending irq false;
    g.active.(irq) <- true;
    Some irq

let eoi g irq =
  check irq;
  set g g.active irq false

let set_enabled_mask g ~keep =
  (* With every source disabled nothing is deliverable; [set] then
     marks each source [keep] brings back. *)
  Array.fill g.enabled 0 (Array.length g.enabled) false;
  Array.fill g.deliverable 0 words 0;
  List.iter (fun irq -> set g g.enabled irq true) keep

let enabled_list g =
  let out = ref [] in
  for irq = Irq_id.max_irq - 1 downto 0 do
    if g.enabled.(irq) then out := irq :: !out
  done;
  !out
