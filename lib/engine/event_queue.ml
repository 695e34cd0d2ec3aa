type id = int

type event = { time : Cycles.t; seq : int; action : unit -> unit }

module Heap = struct
  (* Binary min-heap ordered by (time, seq). *)
  type t = { mutable arr : event array; mutable len : int }

  let dummy = { time = 0; seq = 0; action = ignore }

  let create () = { arr = Array.make 64 dummy; len = 0 }

  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow h =
    let arr = Array.make (2 * Array.length h.arr) dummy in
    Array.blit h.arr 0 arr 0 h.len;
    h.arr <- arr

  let push h e =
    if h.len = Array.length h.arr then grow h;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if lt h.arr.(i) h.arr.(p) then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(p);
          h.arr.(p) <- tmp;
          up p
        end
      end
    in
    up (h.len - 1)

  (* The top entry, or [dummy] (never pushed) when the heap is empty:
     no option to allocate on every poll. *)
  let top h = if h.len = 0 then dummy else h.arr.(0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let s = if l < h.len && lt h.arr.(l) h.arr.(i) then l else i in
        let s = if r < h.len && lt h.arr.(r) h.arr.(s) then r else s in
        if s <> i then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(s);
          h.arr.(s) <- tmp;
          down s
        end
      in
      down 0;
      Some top
    end
end

type t = {
  clock : Clock.t;
  heap : Heap.t;
  (* Every heap entry's seq is in exactly one of these two tables:
     [pending_tbl] (scheduled, may still fire or be cancelled) or
     [cancelled] (tombstone awaiting removal when the entry surfaces
     at the heap top). Fired events are in neither, so a cancel after
     the event fired — or a double cancel — finds nothing to do.
     An entry's value is the last [self_check] sweep that reached it
     from the heap (0: none yet). *)
  pending_tbl : int Int_table.t;
  cancelled : int Int_table.t;
  mutable next_seq : int;
  mutable sweeps : int;
}

let create clock =
  { clock; heap = Heap.create (); pending_tbl = Int_table.create 16;
    cancelled = Int_table.create 16; next_seq = 0; sweeps = 0 }

let now q = Clock.now q.clock

let schedule_at q time action =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  Heap.push q.heap { time; seq; action };
  Int_table.replace q.pending_tbl seq 0;
  seq

let schedule_after q d action = schedule_at q (Clock.now q.clock + d) action

let cancel q id =
  if Int_table.mem q.pending_tbl id then begin
    Int_table.remove q.pending_tbl id;
    Int_table.replace q.cancelled id 0
  end

(* Tombstones are rare: most of the time there is none to hash for. *)
let is_cancelled q seq =
  Int_table.length q.cancelled > 0 && Int_table.mem q.cancelled seq

(* Pop the earliest event, skipping cancelled ones. The survivor is
   removed from [pending_tbl] here, before its action can run, so a
   reentrant cancel from inside the action is a no-op. *)
let rec pop_live q =
  match Heap.pop q.heap with
  | None -> None
  | Some e ->
    if is_cancelled q e.seq then begin
      Int_table.remove q.cancelled e.seq;
      pop_live q
    end
    else begin
      Int_table.remove q.pending_tbl e.seq;
      Some e
    end

(* The earliest live event, or [Heap.dummy] when none is left;
   tombstones surfacing at the top are dropped on the way. Run on
   every [route_irqs], so it and the loops below allocate nothing. *)
let rec top_live q =
  let e = Heap.top q.heap in
  if e != Heap.dummy && is_cancelled q e.seq then begin
    ignore (Heap.pop q.heap);
    Int_table.remove q.cancelled e.seq;
    top_live q
  end
  else e

let next_deadline q =
  let e = top_live q in
  if e == Heap.dummy then None else Some e.time

let run_due q =
  let fired = ref 0 in
  let next = ref (top_live q) in
  while !next != Heap.dummy && !next.time <= Clock.now q.clock do
    let e = !next in
    ignore (pop_live q);
    incr fired;
    e.action ();
    next := top_live q
  done;
  !fired

let advance_until q t =
  let fired = ref 0 in
  let next = ref (top_live q) in
  while !next != Heap.dummy && !next.time <= t do
    Clock.advance_to q.clock !next.time;
    fired := !fired + run_due q;
    next := top_live q
  done;
  Clock.advance_to q.clock t;
  !fired

let pending q = Int_table.length q.pending_tbl

(* Proves, without allocating, that [full_check] would report nothing.
   Each heap entry must lie in exactly one table and stamp its entry
   there with this sweep's number; finding the stamp already set means
   a duplicate seq. Distinct entries, each in one table, as many as
   the two tables hold together: a bijection, so no table entry lacks
   a heap entry and no id is in both tables. *)
let rec entries_clean q stamp i =
  let h = q.heap in
  i = h.Heap.len
  ||
  let seq = h.Heap.arr.(i).seq in
  let p = Int_table.mem q.pending_tbl seq in
  p <> is_cancelled q seq
  &&
  let tbl = if p then q.pending_tbl else q.cancelled in
  Int_table.find tbl seq <> stamp
  && (Int_table.replace tbl seq stamp; entries_clean q stamp (i + 1))

let clean q =
  q.sweeps <- q.sweeps + 1;
  q.heap.Heap.len = Int_table.length q.pending_tbl + Int_table.length q.cancelled
  && entries_clean q q.sweeps 0

let full_check q =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let seen = Int_table.create 16 in
  for i = 0 to q.heap.Heap.len - 1 do
    let seq = q.heap.Heap.arr.(i).seq in
    if Int_table.mem seen seq then note "duplicate heap entry for id %d" seq;
    Int_table.replace seen seq ();
    let p = Int_table.mem q.pending_tbl seq in
    let c = Int_table.mem q.cancelled seq in
    if p && c then note "id %d both pending and cancelled" seq;
    if (not p) && not c then
      note "heap entry %d in neither pending nor cancelled table" seq
  done;
  Int_table.iter
    (fun seq _ ->
       if not (Int_table.mem seen seq) then
         note "pending id %d has no heap entry" seq)
    q.pending_tbl;
  Int_table.iter
    (fun seq _ ->
       if not (Int_table.mem seen seq) then
         note "cancelled tombstone %d has no heap entry (leak)" seq)
    q.cancelled;
  List.rev !problems

let self_check q = if clean q then [] else full_check q
