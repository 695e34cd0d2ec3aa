type config = {
  name : string;
  size_bytes : int;
  ways : int;
  line_size : int;
}

(* Slot state is packed for the benefit of the fused walk loop, and
   kept in [Bytes] blocks, which the GC never scans: a [Bytes] block
   is marked as one object, where an int array's marking visits every
   word (49,152 words for each A9 L2, none of them a pointer). A fresh
   block is one [Bytes.make] of 0xFF bytes, a memset that makes every
   word -1 (see [word] below).

   - [state] word [2*i] holds slot [i]'s tag word: the line address
     OR-ed with the validity generation shifted above it
     ([la lor (vgen lsl tag_bits)]), or -1 when the slot is invalid.
     A slot is live iff its generation field equals the cache's
     current [vgen], so the full-cache invalidate is a generation bump
     (O(1) instead of an O(lines) walk) and stale slots can never
     match a lookup — the hit scan tests single words, with no
     separate valid-bit load and no lazy scrubbing.

   - [state] word [2*i + 1] is slot [i]'s LRU age (larger = more
     recent). Only a live slot's age is ever read ([victim] and the
     written-out 4-way tournament in [run_through] compare live ways
     only, and a fill writes the age with the tag), so a fresh cache's
     -1 ages are don't-cares: it behaves exactly like one emptied by
     [invalidate_all].
     Tag and age are interleaved because every access that reads the
     tag also touches the age: pairing them puts both on the same
     host cache line, which matters because the simulated L2's state
     is far larger than the host L1 and the hot loop's accesses into
     it are essentially random.

   - [dstamp] word [i] = [dgen] iff the slot is dirty; [clean_all]
     bumps [dgen] (O(1)) and every dirty stamp dies wholesale. Non-live
     slots are never dirty ([invalidate_all] bumps both generations;
     the range ops clear eagerly), so dirtiness needs no extra
     validity check. Kept out of the pair: it is only touched by
     stores and fills.

   Both generations are monotonic, so a stale stamp can never come
   back to life. The write-back/discard *counts* the full-cache
   operations must return (they feed cycle charges) are kept
   incrementally in [valid_count] and [dirty_count]. *)
type t = {
  cfg : config;
  sets : int;
  line_shift : int;
  (* Word [2 * (set * ways + way)] (+1 for the age). *)
  state : Bytes.t;
  dstamp : Bytes.t;           (* dirty iff = dgen; word per slot *)
  mutable vgen : int;
  mutable dgen : int;
  mutable valid_count : int;
  mutable dirty_count : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable epoch : int;
}

(* Word [k] of a state block. The blocks are read and written as int
   arrays: every word this module stores is an OCaml int, and an
   int-typed access compiles to one load or store with no tag test, no
   write barrier and no conversion, the same code as an int array's.
   (The 64-bit [Bytes] accessors add a shift per index and a tag or
   untag per value: on a 2-core x86-64 host the L1 replay loop and the
   fused cold walk ran 15-20% slower that way, and [fig8-4vm] spent 8%
   more CPU time.) Any word of 0xFF bytes is the int -1. Every index
   passed is in bounds by construction (the blocks hold [sets * ways]
   slots). *)
let word (b : Bytes.t) k = Array.unsafe_get (Obj.magic b : int array) k

let set_word (b : Bytes.t) k v =
  Array.unsafe_set (Obj.magic b : int array) k (v : int)

(* A block of [n] words, each -1. *)
let words n = Bytes.make (n * (Sys.word_size / 8)) '\xff'

(* Line addresses fit 28 bits (byte addresses below 2^33 with >= 32 B
   lines); the validity generation lives in the bits above. [create]
   rejects geometries that would let a line address overflow into the
   generation field. *)
let tag_bits = 28
let tag_mask = (1 lsl tag_bits) - 1
let addr_bits = 33

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec loop i n = if n = 1 then i else loop (i + 1) (n lsr 1) in
  loop 0 n

let create cfg =
  if not (is_pow2 cfg.line_size) then
    invalid_arg "Cache.create: line_size must be a power of two";
  if log2 cfg.line_size < addr_bits - tag_bits then
    invalid_arg
      (Printf.sprintf
         "Cache.create: line_size %d admits line addresses wider than the \
          %d-bit packed tag (need line_size >= %d for %d-bit addresses)"
         cfg.line_size tag_bits (1 lsl (addr_bits - tag_bits)) addr_bits);
  if cfg.ways <= 0 || cfg.size_bytes mod (cfg.ways * cfg.line_size) <> 0 then
    invalid_arg "Cache.create: capacity not divisible by ways*line";
  let sets = cfg.size_bytes / (cfg.ways * cfg.line_size) in
  if not (is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let n = sets * cfg.ways in
  { cfg; sets; line_shift = log2 cfg.line_size;
    state = words (2 * n);
    dstamp = words n;
    vgen = 0; dgen = 0; valid_count = 0; dirty_count = 0;
    tick = 0; hits = 0; misses = 0; epoch = 0 }

let line_addr t a = a lsr t.line_shift
let set_of_line t la = la land (t.sets - 1)

(* The tag word a live slot holding [la] must carry right now. *)
let live_key t la = la lor (t.vgen lsl tag_bits)

let tag_of t i = word t.state (2 * i)
let live t i = tag_of t i lsr tag_bits = t.vgen
let dirty_slot t i = word t.dstamp i = t.dgen

(* Returns the slot index holding [la] live in its set, or -1. A stale
   slot's generation field differs from [vgen], so its tag word can
   never equal the live key — invalidated lines drop out of the match
   with no separate validity check. *)
let find t la =
  let ways = t.cfg.ways in
  let base = 2 * (set_of_line t la * ways) in
  let state = t.state in
  let key = live_key t la in
  (* While-loop with non-escaping refs (compiled to registers), not a
     local [let rec]: without flambda the closure both allocates and
     calls, and this scan runs at least once per simulated line. *)
  let res = ref (-1) in
  let w = ref 0 in
  while !res < 0 && !w < ways do
    if word state (base + (2 * !w)) = key then
      res := (base lsr 1) + !w;
    incr w
  done;
  !res

(* Victim for a fill in [la]'s set: first non-live way in way order,
   else the least-recently-used live way — byte-identical choice to
   the eager-invalidation implementation this replaces (a
   generation-stale slot counts as invalid, exactly as if its valid
   bit had been cleared eagerly). *)
let victim t la =
  let ways = t.cfg.ways in
  let base = set_of_line t la * ways in
  let best = ref base in
  for w = 1 to ways - 1 do
    let i = base + w in
    if not (live t i) then begin
      if live t !best then best := i
    end
    else if
      live t !best
      && word t.state ((2 * i) + 1) < word t.state ((2 * !best) + 1)
    then best := i
  done;
  !best

let mark_dirty t i =
  if not (dirty_slot t i) then begin
    set_word t.dstamp i t.dgen;
    t.dirty_count <- t.dirty_count + 1
  end

(* Install [la] in slot [i] (the fill half of a miss): maintains the
   valid/dirty counters for whatever state the victim slot was in.
   (A non-live victim is never dirty, see the invariant above.) The
   victim's dirty line leaves the count, and a store fill always adds
   the line it dirties: the two are different lines even when they
   share the slot. *)
let fill_slot t i la ~write =
  let was_dirty = dirty_slot t i in
  if live t i then begin
    if was_dirty then t.dirty_count <- t.dirty_count - 1
  end
  else t.valid_count <- t.valid_count + 1;
  set_word t.state (2 * i) (live_key t la);
  set_word t.state ((2 * i) + 1) t.tick;
  if write then begin
    set_word t.dstamp i t.dgen;
    t.dirty_count <- t.dirty_count + 1
  end
  else if was_dirty then set_word t.dstamp i (-1)

(* The shared per-access transition. Fills bump the epoch: a fill may
   evict another line, so any resident-set snapshot taken earlier is
   stale. Hits only refresh LRU/dirty state and leave the epoch
   alone. Returns the slot index on hit, [lnot] the filled slot (so a
   negative number) on miss. *)
let access_slot t la ~write =
  t.tick <- t.tick + 1;
  let i = find t la in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    set_word t.state ((2 * i) + 1) t.tick;
    if write then mark_dirty t i;
    i
  end
  else begin
    t.misses <- t.misses + 1;
    t.epoch <- t.epoch + 1;
    let i = victim t la in
    fill_slot t i la ~write;
    lnot i
  end

let access_line t la ~write = access_slot t la ~write >= 0

let access t a ~write =
  if access_line t (line_addr t a) ~write then `Hit else `Miss

let run_through t next ~a ~n ~write ~slots ~next_slots ~from =
  (* Fused walk of [n] consecutive lines starting at byte address [a]:
     per line, exactly the transition of [access t] followed — on a
     miss — by [access next] (write-allocate at both levels); each
     next-level consult is one hit or miss on [next], which the caller
     prices. This is the simulator's hottest loop, so both levels are
     fused into one closure-free pass, the A9 L1s' 4-way set scan is
     written out over the paired tag/age words (any other level-one
     geometry calls [find] and [victim]), and every counter (tick,
     hits, misses, epoch, valid/dirty counts) is accumulated in locals
     and committed once — nothing outside the two caches can observe
     the intermediate values, because no events fire inside a walk.

     The slot that ends up holding each line (hit slot or fill victim)
     is recorded into [slots.(from + k)], and likewise the next-level
     slot into [next_slots.(from + k)] — every cold walk doubles as a
     (re)recording pass for the compiled footprint programs in the
     platform layer. Both arrays are also read back as *hints*: when
     the recorded slot (at either level) still carries the line's live
     tag, the hit is replayed there directly, skipping the set scan
     (the tag word is self-verifying, so a stale or garbage hint
     merely falls back to the full scan — at most one live slot ever
     holds a given tag). Hint entries must be -1 or in-bounds for the
     respective cache. Returns the number of lines whose level-one
     hint did not pay off — 0 proves every line was still live in its
     recorded slot, i.e. the walk was pure hits and left the epoch
     untouched. The result is an int, not a pair, so a walk allocates
     nothing. *)
  let la0 = line_addr t a in
  let ways = t.cfg.ways in
  let smask = t.sets - 1 in
  let state = t.state in
  let key0 = live_key t la0 in
  let gen = t.vgen in
  let tick = ref t.tick in
  let hits = ref 0 and misses = ref 0 in
  let vdelta = ref 0 and ddelta = ref 0 in
  (* Next level, in locals too. Line sizes may differ in custom
     geometries; [nshift] converts our line addresses to next's. *)
  let nshift = next.line_shift - t.line_shift in
  let nstate = next.state in
  let nways = next.cfg.ways in
  let nsmask = next.sets - 1 in
  let ngen = next.vgen lsl tag_bits in
  let ntick = ref next.tick in
  let nhits = ref 0 and nmisses = ref 0 in
  let nvdelta = ref 0 and nddelta = ref 0 in
  let moved = ref 0 in
  for k = 0 to n - 1 do
    let la = la0 + k in
    let key = key0 + k in
    incr tick;
    (* Recorded-slot hint first: one self-verifying compare stands in
       for the whole set scan when the line has not moved, which is
       the common case for a replayed footprint whose epoch stamp went
       stale through someone else's fills. *)
    let hint = Array.unsafe_get slots (from + k) in
    let vbest = ref (-1) in
    let i =
      if hint >= 0 && word state (2 * hint) = key then hint
      else begin
        incr moved;
        if ways = 4 then begin
          let base = 2 * ((la land smask) * ways) in
          let s0 = base lsr 1 in
          (* The A9 L1s, written out: four tag compares for the hit,
             then the victim — first non-live way in way order, else
             the strictly-oldest age, earliest way on ties (a pairwise
             tournament in which the later pair must be strictly
             older to win). The same choice as [victim], which with
             [find] serves every other geometry. *)
          let t0 = word state base in
          let t1 = word state (base + 2) in
          let t2 = word state (base + 4) in
          let t3 = word state (base + 6) in
          if t0 = key then s0
          else if t1 = key then s0 + 1
          else if t2 = key then s0 + 2
          else if t3 = key then s0 + 3
          else begin
            vbest :=
              if t0 lsr tag_bits <> gen then s0
              else if t1 lsr tag_bits <> gen then s0 + 1
              else if t2 lsr tag_bits <> gen then s0 + 2
              else if t3 lsr tag_bits <> gen then s0 + 3
              else begin
                let a0 = word state (base + 1) in
                let a1 = word state (base + 3) in
                let a2 = word state (base + 5) in
                let a3 = word state (base + 7) in
                let w01 = if a1 < a0 then 1 else 0 in
                let w23 = if a3 < a2 then 3 else 2 in
                let age01 = if a1 < a0 then a1 else a0 in
                let age23 = if a3 < a2 then a3 else a2 in
                s0 + if age23 < age01 then w23 else w01
              end;
            -1
          end
        end
        else begin
          let i = find t la in
          if i < 0 then vbest := victim t la;
          i
        end
      end
    in
    let slot =
      if i >= 0 then begin
        incr hits;
        set_word state ((2 * i) + 1) !tick;
        if write && not (dirty_slot t i) then begin
          set_word t.dstamp i t.dgen;
          incr ddelta
        end;
        i
      end
      else begin
        incr misses;
        let i = !vbest in
        let was_dirty = dirty_slot t i in
        if word state (2 * i) lsr tag_bits = gen then begin
          if was_dirty then decr ddelta
        end
        else incr vdelta;
        set_word state (2 * i) key;
        set_word state ((2 * i) + 1) !tick;
        (* As in [fill_slot]: a store fill always dirties one line. *)
        if write then begin
          set_word t.dstamp i t.dgen;
          incr ddelta
        end
        else if was_dirty then set_word t.dstamp i (-1);
        (* Line fill consults the next level, like the scalar path.
           Try the recorded next-level slot first: a live tag match
           proves it is the unique slot holding the line, so replaying
           the hit there is exactly what the full scan would do. *)
        let nla = if nshift >= 0 then la lsr nshift else la lsl (-nshift) in
        let nkey = nla lor ngen in
        incr ntick;
        let hint = Array.unsafe_get next_slots (from + k) in
        let j =
          if hint >= 0 && word nstate (2 * hint) = nkey then hint
          else begin
            let nbase = 2 * ((nla land nsmask) * nways) in
            let res = ref (-1) in
            let w = ref 0 in
            while !res < 0 && !w < nways do
              if word nstate (nbase + (2 * !w)) = nkey then
                res := (nbase lsr 1) + !w;
              incr w
            done;
            !res
          end
        in
        if j >= 0 then begin
          incr nhits;
          set_word nstate ((2 * j) + 1) !ntick;
          if write && not (dirty_slot next j) then begin
            set_word next.dstamp j next.dgen;
            incr nddelta
          end;
          Array.unsafe_set next_slots (from + k) j
        end
        else begin
          incr nmisses;
          let j = victim next nla in
          let nwas_dirty = dirty_slot next j in
          if live next j then begin
            if nwas_dirty then decr nddelta
          end
          else incr nvdelta;
          set_word nstate (2 * j) nkey;
          set_word nstate ((2 * j) + 1) !ntick;
          if write then begin
            set_word next.dstamp j next.dgen;
            incr nddelta
          end
          else if nwas_dirty then set_word next.dstamp j (-1);
          Array.unsafe_set next_slots (from + k) j
        end;
        i
      end
    in
    Array.unsafe_set slots (from + k) slot
  done;
  t.tick <- !tick;
  t.hits <- t.hits + !hits;
  t.misses <- t.misses + !misses;
  t.epoch <- t.epoch + !misses;
  t.valid_count <- t.valid_count + !vdelta;
  t.dirty_count <- t.dirty_count + !ddelta;
  next.tick <- !ntick;
  next.hits <- next.hits + !nhits;
  next.misses <- next.misses + !nmisses;
  next.epoch <- next.epoch + !nmisses;
  next.valid_count <- next.valid_count + !nvdelta;
  next.dirty_count <- next.dirty_count + !nddelta;
  !moved

let replay_hits t idx ~start ~stop ~write =
  (* Replay a recorded run of guaranteed hits: identical counter, LRU
     and dirty transitions to calling [access] on each line, valid only
     while every replayed slot still holds its recorded line (epoch
     unchanged since recording). *)
  let tick = ref t.tick in
  let state = t.state in
  if write then
    for k = start to stop - 1 do
      let i = Array.unsafe_get idx k in
      incr tick;
      set_word state ((2 * i) + 1) !tick;
      mark_dirty t i
    done
  else
    for k = start to stop - 1 do
      let i = Array.unsafe_get idx k in
      incr tick;
      set_word state ((2 * i) + 1) !tick
    done;
  t.hits <- t.hits + (stop - start);
  t.tick <- !tick

let probe t a = find t (line_addr t a) >= 0

let lines t = t.sets * t.cfg.ways

(* The range ops visit each live line whose address lies in [first,
   last] (the lines [a, a+len) touches) in a plain loop, with no
   closure. Step [k] visits [range_slot], or nothing when it is -1:
   line [first + k]'s slot, or with [scan] (a range of more lines than
   the cache holds) slot [k] itself, so the state is scanned once in
   slot order instead of looking each line up. *)
let range_slot t ~scan first last k =
  if scan then begin
    let la = tag_of t k land tag_mask in
    if live t k && la >= first && la <= last then k else -1
  end
  else find t (first + k)

let dirty_in_range t a len =
  let first = line_addr t a and last = line_addr t (a + len - 1) in
  let scan = last - first >= lines t in
  let found = ref false in
  for k = 0 to (if scan then lines t else last - first + 1) - 1 do
    let i = range_slot t ~scan first last k in
    if i >= 0 && dirty_slot t i then found := true
  done;
  !found

let clean_range t a len =
  let first = line_addr t a and last = line_addr t (a + len - 1) in
  let scan = last - first >= lines t in
  let n = ref 0 in
  for k = 0 to (if scan then lines t else last - first + 1) - 1 do
    let i = range_slot t ~scan first last k in
    if i >= 0 && dirty_slot t i then begin
      set_word t.dstamp i (-1);
      t.dirty_count <- t.dirty_count - 1;
      incr n
    end
  done;
  if !n > 0 then t.epoch <- t.epoch + 1;
  !n

let invalidate_range t a len =
  let first = line_addr t a and last = line_addr t (a + len - 1) in
  let scan = last - first >= lines t in
  let n = ref 0 in
  for k = 0 to (if scan then lines t else last - first + 1) - 1 do
    let i = range_slot t ~scan first last k in
    if i >= 0 then begin
      set_word t.state (2 * i) (-1);
      if dirty_slot t i then begin
        set_word t.dstamp i (-1);
        t.dirty_count <- t.dirty_count - 1
      end;
      t.valid_count <- t.valid_count - 1;
      incr n
    end
  done;
  if !n > 0 then t.epoch <- t.epoch + 1;
  !n

let invalidate_all t =
  (* O(1): bumping the generations orphans every live tag at once. *)
  let n = t.valid_count in
  if n > 0 then t.epoch <- t.epoch + 1;
  t.vgen <- t.vgen + 1;
  t.dgen <- t.dgen + 1;
  t.valid_count <- 0;
  t.dirty_count <- 0;
  n

let clean_all t =
  (* O(1): every dirty stamp dies with the generation; lines stay
     resident. *)
  let n = t.dirty_count in
  if n > 0 then t.epoch <- t.epoch + 1;
  t.dgen <- t.dgen + 1;
  t.dirty_count <- 0;
  n

let hits t = t.hits
let misses t = t.misses
let epoch t = t.epoch

let valid_lines t = t.valid_count
let dirty_lines t = t.dirty_count

let line_size t = t.cfg.line_size

let sets t = t.sets

let access_word t a ~write = access_slot t (line_addr t a) ~write

let rehit t i ~write ~n =
  (* [n] back-to-back hits on one slot: each bumps the tick, counts a
     hit and sets the age to the tick, so only the last age survives. *)
  t.tick <- t.tick + n;
  t.hits <- t.hits + n;
  set_word t.state ((2 * i) + 1) t.tick;
  if write then mark_dirty t i
