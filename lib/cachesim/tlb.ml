type entry = { ppage : int; word : int; global : bool }

type config = { entries : int; ways : int }

(* A slot is live when [valid] is set AND its generation stamp matches
   the TLB's current generation: the full flush only bumps the
   generation (O(1)) and stale slots are treated as empty wherever
   they are next touched. The count a flush must report (it feeds the
   maintenance cycle charge) is kept incrementally in [live_count]. *)
type slot = {
  mutable valid : bool;
  mutable gen : int;
  mutable asid : int;
  mutable vpage : int;
  mutable entry : entry;
  mutable age : int;
}

type t = {
  cfg : config;
  sets : int;
  slots : slot array;
  mutable gen_cur : int;
  mutable live_count : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable epoch : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let cortex_a9 = { entries = 128; ways = 2 }

let dummy_entry = { ppage = 0; word = 0; global = false }

let create cfg =
  if cfg.ways <= 0 || cfg.entries mod cfg.ways <> 0 then
    invalid_arg "Tlb.create: entries not divisible by ways";
  let sets = cfg.entries / cfg.ways in
  if not (is_pow2 sets) then
    invalid_arg "Tlb.create: set count must be a power of two";
  let slots =
    Array.init cfg.entries (fun _ ->
        { valid = false; gen = 0; asid = 0; vpage = 0; entry = dummy_entry;
          age = 0 })
  in
  { cfg; sets; slots; gen_cur = 0; live_count = 0; tick = 0; hits = 0;
    misses = 0; epoch = 0 }

let null_slot =
  { valid = false; gen = 0; asid = -1; vpage = -1; entry = dummy_entry;
    age = 0 }

let set_of t vpage = vpage land (t.sets - 1)

let slot_live t s = s.valid && s.gen = t.gen_cur

(* The live slot holding [vpage]'s translation for [asid], or
   [null_slot]. A plain loop over the ways, so the probe allocates
   nothing and is small enough to inline. *)
let matching t ~asid ~vpage =
  let ways = t.cfg.ways in
  let base = set_of t vpage * ways in
  let found = ref null_slot in
  let w = ref 0 in
  while !w < ways do
    let s = Array.unsafe_get t.slots (base + !w) in
    if
      slot_live t s && s.vpage = vpage && (s.entry.global || s.asid = asid)
    then begin
      found := s;
      w := ways
    end
    else incr w
  done;
  !found

let lookup t ~asid ~vpage =
  t.tick <- t.tick + 1;
  let s = matching t ~asid ~vpage in
  if s != null_slot then begin
    t.hits <- t.hits + 1;
    s.age <- t.tick;
    Some s.entry
  end
  else begin
    t.misses <- t.misses + 1;
    None
  end

let peek t ~asid ~vpage = matching t ~asid ~vpage

let refresh t s =
  t.tick <- t.tick + 1;
  t.hits <- t.hits + 1;
  s.age <- t.tick

let insert t ~asid ~vpage entry =
  t.tick <- t.tick + 1;
  let base = set_of t vpage * t.cfg.ways in
  (* Reuse an existing slot for the same mapping, else LRU victim
     (a generation-stale slot counts as free, exactly as if the flush
     had cleared its valid bit eagerly). *)
  let slot =
    let s = matching t ~asid ~vpage in
    if s != null_slot then s
    else begin
      let best = ref t.slots.(base) in
      for w = 1 to t.cfg.ways - 1 do
        let s = t.slots.(base + w) in
        if not (slot_live t s) then begin
          if slot_live t !best then best := s
        end
        else if slot_live t !best && s.age < !best.age then best := s
      done;
      !best
    end
  in
  if not (slot_live t slot) then t.live_count <- t.live_count + 1;
  slot.valid <- true;
  slot.gen <- t.gen_cur;
  slot.asid <- asid;
  slot.vpage <- vpage;
  slot.entry <- entry;
  slot.age <- t.tick;
  t.epoch <- t.epoch + 1

let flush_all t =
  (* O(1): the generation bump orphans every live slot at once. *)
  let n = t.live_count in
  if n > 0 then t.epoch <- t.epoch + 1;
  t.gen_cur <- t.gen_cur + 1;
  t.live_count <- 0;
  n

let flush_asid t asid =
  let n = ref 0 in
  Array.iter
    (fun s ->
       if slot_live t s && (not s.entry.global) && s.asid = asid then begin
         s.valid <- false;
         t.live_count <- t.live_count - 1;
         incr n
       end)
    t.slots;
  if !n > 0 then t.epoch <- t.epoch + 1;
  !n

let flush_page t ~asid ~vpage =
  let base = set_of t vpage * t.cfg.ways in
  for w = 0 to t.cfg.ways - 1 do
    let s = t.slots.(base + w) in
    if
      slot_live t s && s.vpage = vpage && (s.entry.global || s.asid = asid)
    then begin
      s.valid <- false;
      t.live_count <- t.live_count - 1;
      t.epoch <- t.epoch + 1
    end
  done

let hits t = t.hits
let misses t = t.misses
let epoch t = t.epoch

let live_entries t = t.live_count
