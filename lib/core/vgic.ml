type source = {
  mutable enabled : bool;
  mutable pending : bool;
  mutable swept : int;  (* last [self_check] sweep that found it queued *)
}

type t = {
  owner : int;
  sources : source Int_table.t;
  arrival : int Queue.t;  (* pending ids in arrival order, no duplicates *)
  mutable entry : Addr.t option;
  (* Lifetime conservation counters (invariant plane): at any moment
     latched = raised - delivered - reclaimed. *)
  mutable raised : int;
  mutable delivered : int;
  mutable reclaimed : int;
  mutable sweeps : int;
}

let create ~owner =
  { owner; sources = Int_table.create 8; arrival = Queue.create ();
    entry = None; raised = 0; delivered = 0; reclaimed = 0; sweeps = 0 }

let register t irq =
  if not (Int_table.mem t.sources irq) then
    Int_table.replace t.sources irq
      { enabled = false; pending = false; swept = 0 }

let registered t irq = Int_table.mem t.sources irq

let find t irq =
  match Int_table.find_opt t.sources irq with
  | Some s -> s
  | None -> invalid_arg "Vgic: source not registered"

let enable t irq = (find t irq).enabled <- true
let disable t irq = (find t irq).enabled <- false

let set_entry t a = t.entry <- Some a

let set_pending t irq =
  let s =
    match Int_table.find_opt t.sources irq with
    | Some s -> s
    | None ->
      (* Latch even if the guest has not registered the source yet. *)
      let s = { enabled = false; pending = false; swept = 0 } in
      Int_table.replace t.sources irq s;
      s
  in
  if not s.pending then begin
    s.pending <- true;
    t.raised <- t.raised + 1;
    Queue.push irq t.arrival
  end

let latched t =
  Int_table.fold (fun _ s n -> if s.pending then n + 1 else n) t.sources 0

let clear_pending t =
  (* Count sources actually latched, not arrival-queue entries. *)
  let n = latched t in
  Queue.clear t.arrival;
  Int_table.iter (fun _ s -> s.pending <- false) t.sources;
  t.reclaimed <- t.reclaimed + n;
  n

let drain t =
  (* Walk the arrival queue once; requeue what stays latched. *)
  let n = Queue.length t.arrival in
  let delivered = ref [] in
  for _ = 1 to n do
    let irq = Queue.pop t.arrival in
    match Int_table.find_opt t.sources irq with
    | None -> () (* a stale entry: [self_check] reports it *)
    | Some s ->
      if s.enabled && s.pending then begin
        s.pending <- false;
        t.delivered <- t.delivered + 1;
        delivered := irq :: !delivered
      end
      else if s.pending then Queue.push irq t.arrival
  done;
  List.rev !delivered

let has_deliverable t =
  Queue.fold
    (fun acc irq ->
       acc
       ||
       match Int_table.find_opt t.sources irq with
       | Some s -> s.enabled && s.pending
       | None -> false)
    false t.arrival

let enabled_sources t =
  let out =
    Int_table.fold (fun irq s acc -> if s.enabled then irq :: acc else acc)
      t.sources []
  in
  List.sort Int.compare out

let raised t = t.raised
let delivered t = t.delivered
let reclaimed t = t.reclaimed

(* Proves, without building a table, that [full_check] would report
   nothing. Each queued irq must have a pending source not yet stamped
   by this sweep: the queue maps one-to-one into the pending sources,
   and as many entries as pending sources make that a bijection, so no
   pending source is missing from the queue. *)
let clean t =
  t.sweeps <- t.sweeps + 1;
  let stamp = t.sweeps in
  let l = latched t in
  l = t.raised - t.delivered - t.reclaimed
  && Queue.length t.arrival = l
  && Queue.fold
       (fun ok irq ->
          ok
          &&
          match Int_table.find t.sources irq with
          | s when s.pending && s.swept <> stamp -> s.swept <- stamp; true
          | _ -> false
          | exception Not_found -> false)
       true t.arrival

let full_check t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let queued = Int_table.create 8 in
  Queue.iter
    (fun irq ->
       if Int_table.mem queued irq then
         note "vgic %d: irq %d queued twice" t.owner irq;
       Int_table.replace queued irq ();
       match Int_table.find_opt t.sources irq with
       | None ->
         note "vgic %d: queued irq %d has no source (stale entry)" t.owner
           irq
       | Some s ->
         if not s.pending then
           note "vgic %d: queued irq %d is not pending" t.owner irq)
    t.arrival;
  Int_table.iter
    (fun irq s ->
       if s.pending && not (Int_table.mem queued irq) then
         note "vgic %d: pending irq %d missing from arrival queue" t.owner
           irq)
    t.sources;
  let l = latched t in
  let expect = t.raised - t.delivered - t.reclaimed in
  if l <> expect then
    note
      "vgic %d: conservation broken: latched %d <> raised %d - delivered %d \
       - reclaimed %d"
      t.owner l t.raised t.delivered t.reclaimed;
  List.rev !problems

let self_check t = if clean t then [] else full_check t
