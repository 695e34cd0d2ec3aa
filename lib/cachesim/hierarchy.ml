type latencies = {
  l1_hit : int;
  l2_hit : int;
  dram : int;
  writeback : int;
  maintenance_per_line : int;
}

let latencies =
  { l1_hit = 1; l2_hit = 25; dram = 120; writeback = 12;
    maintenance_per_line = 4 }

type kind = Ifetch | Load | Store

type t = {
  clock : Clock.t;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
}

let a9_l1i = { Cache.name = "L1I"; size_bytes = 32 * 1024; ways = 4;
               line_size = 32 }

let a9_l1d = { a9_l1i with Cache.name = "L1D" }

let a9_l2 = { Cache.name = "L2"; size_bytes = 512 * 1024; ways = 8;
              line_size = 32 }

let create_custom ~l1i ~l1d ~l2 clock =
  { clock;
    l1i = Cache.create l1i;
    l1d = Cache.create l1d;
    l2 = Cache.create l2 }

let create clock = create_custom ~l1i:a9_l1i ~l1d:a9_l1d ~l2:a9_l2 clock

let access t kind a =
  let l1 = match kind with Ifetch -> t.l1i | Load | Store -> t.l1d in
  let write = kind = Store in
  let cost =
    match Cache.access l1 a ~write with
    | `Hit -> latencies.l1_hit
    | `Miss ->
      (* L1 line fill goes through L2 (write-allocate at both levels). *)
      (match Cache.access t.l2 a ~write with
       | `Hit -> latencies.l1_hit + latencies.l2_hit
       | `Miss -> latencies.l1_hit + latencies.l2_hit + latencies.dram)
  in
  Clock.advance t.clock cost;
  cost

let access_words t kind a n =
  (* [n] word accesses at [a, a + 4, …]: the first word of each line
     is a full [access]; the rest of that line's words are repeat hits
     on the slot the first one left it in — exactly what their own
     [access] calls would find, with no set scan and no L2 consult.
     One clock advance for the run. *)
  let l1 = match kind with Ifetch -> t.l1i | Load | Store -> t.l1d in
  let write = kind = Store in
  let line = Cache.line_size l1 in
  let cost = ref 0 in
  let k = ref 0 in
  while !k < n do
    let pa = a + (4 * !k) in
    let s = Cache.access_word l1 pa ~write in
    let slot =
      if s >= 0 then begin
        cost := !cost + latencies.l1_hit;
        s
      end
      else begin
        (match Cache.access t.l2 pa ~write with
         | `Hit -> cost := !cost + latencies.l1_hit + latencies.l2_hit
         | `Miss ->
           cost :=
             !cost + latencies.l1_hit + latencies.l2_hit + latencies.dram);
        lnot s
      end
    in
    (* Words after [pa] that start in the same line. *)
    let rest = Int.min (n - !k - 1) ((line - 1 - (pa land (line - 1))) / 4) in
    if rest > 0 then begin
      Cache.rehit l1 slot ~write ~n:rest;
      cost := !cost + (rest * latencies.l1_hit)
    end;
    k := !k + 1 + rest
  done;
  Clock.advance t.clock !cost;
  !cost

let access_line_run_record t kind a n ~slots ~next_slots ~from =
  (* Batched equivalent of [n] calls to [access] at [a, a + line, …]
     (one per cache line): identical L1/L2 state transitions in the
     same order, but a single fused dispatch (no closure per missing
     line) and a single clock advance. The L1 slot that ends up
     holding each line is recorded into [slots.(from + k)] (and the L2
     slot of each missing line into [next_slots.(from + k)]), which is
     how the platform layer's compiled footprint programs refresh
     their replay records on every cold walk for free — and both
     arrays are consulted as self-verifying placement hints on the way
     in, so re-walking a footprint whose lines have not moved costs
     one tag compare per line. The cost is charged to the clock;
     returns the number of lines whose recorded L1 slot no longer held
     them ([0] proves the walk was pure L1 hits). *)
  let l1 = match kind with Ifetch -> t.l1i | Load | Store -> t.l1d in
  let write = kind = Store in
  let l2_hits = Cache.hits t.l2 and l2_misses = Cache.misses t.l2 in
  let moved = Cache.run_through l1 t.l2 ~a ~n ~write ~slots ~next_slots ~from in
  (* Each line that missed the L1 consulted the L2 once. *)
  Clock.advance t.clock
    ((n * latencies.l1_hit)
     + ((Cache.hits t.l2 - l2_hits) * latencies.l2_hit)
     + ((Cache.misses t.l2 - l2_misses) * (latencies.l2_hit + latencies.dram)));
  moved

let access_uncached t =
  (* Single-beat device access over the peripheral bus. *)
  let cost = 25 in
  Clock.advance t.clock cost;
  cost

let charge t c =
  Clock.advance t.clock c;
  c

let clean_dcache_range t a len =
  let wb = Cache.clean_range t.l1d a len + Cache.clean_range t.l2 a len in
  let touched = (len + Addr.line_size - 1) / Addr.line_size in
  charge t
    ((wb * latencies.writeback) + (touched * latencies.maintenance_per_line))

let invalidate_dcache_range t a len =
  let dropped =
    Cache.invalidate_range t.l1d a len + Cache.invalidate_range t.l2 a len
  in
  let touched = (len + Addr.line_size - 1) / Addr.line_size in
  ignore dropped;
  charge t (touched * latencies.maintenance_per_line)

let clean_invalidate_all t =
  let wb = Cache.clean_all t.l1d + Cache.clean_all t.l2 in
  let dropped =
    Cache.invalidate_all t.l1d + Cache.invalidate_all t.l2
    + Cache.invalidate_all t.l1i
  in
  charge t
    ((wb * latencies.writeback)
     + (dropped * latencies.maintenance_per_line)
     + 200)

let dirty_in_range t a len =
  Cache.dirty_in_range t.l1d a len || Cache.dirty_in_range t.l2 a len

let l1i t = t.l1i
let l1d t = t.l1d
let l2 t = t.l2

type counts = {
  l1i_hits : int; l1i_misses : int;
  l1d_hits : int; l1d_misses : int;
  l2_hits : int; l2_misses : int;
}

let counts t =
  { l1i_hits = Cache.hits t.l1i; l1i_misses = Cache.misses t.l1i;
    l1d_hits = Cache.hits t.l1d; l1d_misses = Cache.misses t.l1d;
    l2_hits = Cache.hits t.l2; l2_misses = Cache.misses t.l2 }
