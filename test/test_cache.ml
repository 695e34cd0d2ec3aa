(* Tests for the cache, TLB and hierarchy models. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let small_cfg =
  { Cache.name = "test"; size_bytes = 1024; ways = 2; line_size = 32 }
(* 1 KB, 2-way, 32 B lines -> 16 sets. *)

let test_cache_geometry () =
  let c = Cache.create small_cfg in
  check ci "lines" 32 (Cache.lines c);
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Cache.create: capacity not divisible by ways*line")
    (fun () -> ignore (Cache.create { small_cfg with Cache.size_bytes = 1000 }))

let test_cache_hit_miss () =
  let c = Cache.create small_cfg in
  check cb "cold miss" true (Cache.access c 0x1000 ~write:false = `Miss);
  check cb "warm hit" true (Cache.access c 0x1000 ~write:false = `Hit);
  check cb "same line hit" true (Cache.access c 0x101F ~write:false = `Hit);
  check cb "next line miss" true (Cache.access c 0x1020 ~write:false = `Miss);
  check ci "stats hits" 2 (Cache.hits c);
  check ci "stats misses" 2 (Cache.misses c)

let test_cache_lru () =
  let c = Cache.create small_cfg in
  (* Three lines mapping to the same set (stride = sets * line = 512). *)
  ignore (Cache.access c 0x0000 ~write:false);
  ignore (Cache.access c 0x0200 ~write:false);
  ignore (Cache.access c 0x0000 ~write:false); (* refresh first *)
  ignore (Cache.access c 0x0400 ~write:false); (* evicts 0x0200 (LRU) *)
  check cb "victim evicted" false (Cache.probe c 0x0200);
  check cb "recently used kept" true (Cache.probe c 0x0000);
  check cb "newcomer resident" true (Cache.probe c 0x0400)

let test_cache_dirty () =
  let c = Cache.create small_cfg in
  ignore (Cache.access c 0x100 ~write:true);
  ignore (Cache.access c 0x200 ~write:false);
  check cb "dirty detected" true (Cache.dirty_in_range c 0x100 4);
  check cb "clean range not dirty" false (Cache.dirty_in_range c 0x200 4);
  check ci "clean writes back one line" 1 (Cache.clean_range c 0x0 0x1000);
  check cb "clean clears dirtiness" false (Cache.dirty_in_range c 0x100 4);
  check cb "line stays resident after clean" true (Cache.probe c 0x100)

let test_cache_invalidate () =
  let c = Cache.create small_cfg in
  ignore (Cache.access c 0x100 ~write:true);
  ignore (Cache.access c 0x300 ~write:false);
  check ci "invalidate range drops one" 1 (Cache.invalidate_range c 0x100 32);
  check cb "gone" false (Cache.probe c 0x100);
  check cb "other kept" true (Cache.probe c 0x300);
  check ci "invalidate all drops rest" 1 (Cache.invalidate_all c)

(* The O(1) generation-stamped full-cache operations must be
   statistically indistinguishable from the eager walks they replaced:
   same returned counts, same later hit/miss behaviour, no zombie
   dirtiness. Lines per set stay <= ways so nothing self-evicts. *)
let test_cache_gen_stamped_full_ops () =
  let c = Cache.create small_cfg in
  ignore (Cache.access c 0x000 ~write:true);
  ignore (Cache.access c 0x020 ~write:false);
  ignore (Cache.access c 0x200 ~write:true);
  check ci "valid lines tracked" 3 (Cache.valid_lines c);
  check ci "dirty lines tracked" 2 (Cache.dirty_lines c);
  let e0 = Cache.epoch c in
  check ci "clean_all writes back every dirty line" 2 (Cache.clean_all c);
  check cb "clean_all bumps the epoch" true (Cache.epoch c > e0);
  check ci "second clean_all finds nothing" 0 (Cache.clean_all c);
  check cb "lines stay resident after clean_all" true (Cache.probe c 0x000);
  check ci "still all resident" 3 (Cache.valid_lines c);
  ignore (Cache.access c 0x020 ~write:true);
  check ci "invalidate_all returns the resident count" 3
    (Cache.invalidate_all c);
  check cb "probe misses after invalidate_all" false (Cache.probe c 0x000);
  check cb "other set dropped too" false (Cache.probe c 0x200);
  check ci "nothing resident" 0 (Cache.valid_lines c);
  check ci "nothing dirty" 0 (Cache.dirty_lines c);
  check ci "no zombie dirt reachable by ranges" 0 (Cache.clean_range c 0 0x1000);
  check ci "second invalidate_all drops nothing" 0 (Cache.invalidate_all c);
  (* The cache is fully functional after the generation bumps. *)
  let h0 = Cache.hits c and m0 = Cache.misses c in
  check cb "refill misses" true (Cache.access c 0x000 ~write:true = `Miss);
  check cb "then hits" true (Cache.access c 0x000 ~write:false = `Hit);
  check ci "hit counted" (h0 + 1) (Cache.hits c);
  check ci "miss counted" (m0 + 1) (Cache.misses c);
  check ci "dirty again" 1 (Cache.dirty_lines c);
  check ci "clean_all after reuse" 1 (Cache.clean_all c)

let test_cache_large_range_scan () =
  let c = Cache.create small_cfg in
  ignore (Cache.access c 0x100 ~write:true);
  (* A range far larger than the cache uses the scan path. *)
  check cb "dirty found by scan" true (Cache.dirty_in_range c 0 (1 lsl 24))

let prop_probe_after_access =
  QCheck2.Test.make ~name:"accessed line is resident" ~count:300
    QCheck2.Gen.(int_range 0 0xFFFFF)
    (fun a ->
       let c = Cache.create small_cfg in
       ignore (Cache.access c a ~write:false);
       Cache.probe c a)

(* --- TLB --- *)

let entry ?(global = false) ppage = { Tlb.ppage; word = 0; global }

(* The translation [probe] finds, if any. *)
let lookup t ~asid ~vpage =
  let s = Tlb.probe t ~asid ~vpage in
  if s == Tlb.null_slot then None else Some (Tlb.entry s)

let test_tlb_hit_miss () =
  let t = Tlb.create Tlb.cortex_a9 in
  check cb "cold miss" true (lookup t ~asid:1 ~vpage:5 = None);
  Tlb.insert t ~asid:1 ~vpage:5 (entry 42);
  (match lookup t ~asid:1 ~vpage:5 with
   | Some e -> check ci "translation" 42 e.Tlb.ppage
   | None -> Alcotest.fail "expected hit");
  check ci "one hit" 1 (Tlb.hits t);
  check ci "one miss" 1 (Tlb.misses t)

let test_tlb_asid_isolation () =
  let t = Tlb.create Tlb.cortex_a9 in
  Tlb.insert t ~asid:1 ~vpage:5 (entry 42);
  check cb "other ASID misses" true (lookup t ~asid:2 ~vpage:5 = None)

let test_tlb_global () =
  let t = Tlb.create Tlb.cortex_a9 in
  Tlb.insert t ~asid:1 ~vpage:9 (entry ~global:true 7);
  check cb "global hits under any ASID" true
    (lookup t ~asid:200 ~vpage:9 <> None);
  check ci "flush_asid spares globals" 0 (Tlb.flush_asid t 1);
  check cb "still there" true (lookup t ~asid:3 ~vpage:9 <> None);
  check ci "flush_all drops globals" 1 (Tlb.flush_all t)

let test_tlb_flush_asid () =
  let t = Tlb.create Tlb.cortex_a9 in
  Tlb.insert t ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert t ~asid:1 ~vpage:2 (entry 11);
  Tlb.insert t ~asid:2 ~vpage:3 (entry 12);
  check ci "drops only asid 1" 2 (Tlb.flush_asid t 1);
  check cb "asid 2 survives" true (lookup t ~asid:2 ~vpage:3 <> None)

let test_tlb_flush_page () =
  let t = Tlb.create Tlb.cortex_a9 in
  Tlb.insert t ~asid:1 ~vpage:1 (entry 10);
  Tlb.flush_page t ~asid:1 ~vpage:1;
  check cb "gone" true (lookup t ~asid:1 ~vpage:1 = None)

(* O(1) generation-stamped flush_all: same returned count and later
   behaviour as the eager walk. *)
let test_tlb_gen_stamped_flush () =
  let t = Tlb.create { Tlb.entries = 4; ways = 2 } in
  Tlb.insert t ~asid:1 ~vpage:0 (entry 1);
  Tlb.insert t ~asid:1 ~vpage:1 (entry 2);
  Tlb.insert t ~asid:2 ~vpage:2 (entry ~global:true 3);
  check ci "live entries tracked" 3 (Tlb.live_entries t);
  check ci "flush_all drops everything at once" 3 (Tlb.flush_all t);
  check ci "nothing live" 0 (Tlb.live_entries t);
  check ci "second flush_all drops nothing" 0 (Tlb.flush_all t);
  check cb "stale entry never matches" true (lookup t ~asid:1 ~vpage:0 = None);
  (* Stale slots are reusable: reinsert into the same set. *)
  Tlb.insert t ~asid:1 ~vpage:0 (entry 9);
  check cb "reinserted entry hits" true (lookup t ~asid:1 ~vpage:0 <> None);
  check ci "one live again" 1 (Tlb.live_entries t)

let test_tlb_eviction () =
  (* 4-entry, 2-way TLB: 2 sets; three same-set insertions evict LRU. *)
  let t = Tlb.create { Tlb.entries = 4; ways = 2 } in
  Tlb.insert t ~asid:1 ~vpage:0 (entry 1);
  Tlb.insert t ~asid:1 ~vpage:2 (entry 2);
  ignore (lookup t ~asid:1 ~vpage:0);
  Tlb.insert t ~asid:1 ~vpage:4 (entry 3);
  check cb "LRU victim" true (lookup t ~asid:1 ~vpage:2 = None);
  check cb "MRU kept" true (lookup t ~asid:1 ~vpage:0 <> None)

(* --- Hierarchy --- *)

let test_hierarchy_latency_ordering () =
  let clock = Clock.create () in
  let h = Hierarchy.create clock in
  let cost kind a = Hierarchy.access h kind a in
  let miss = cost Hierarchy.Load 0x10000 in
  let hit = cost Hierarchy.Load 0x10000 in
  check cb "miss slower than hit" true (miss > hit);
  check ci "L1 hit cost" Hierarchy.latencies.Hierarchy.l1_hit hit;
  check ci "full miss cost"
    (Hierarchy.latencies.Hierarchy.l1_hit
     + Hierarchy.latencies.Hierarchy.l2_hit
     + Hierarchy.latencies.Hierarchy.dram)
    miss;
  check cb "clock advanced" true (Clock.now clock = miss + hit)

let test_hierarchy_l2_hit () =
  let clock = Clock.create () in
  let h = Hierarchy.create clock in
  ignore (Hierarchy.access h Hierarchy.Load 0x20000);
  (* Evict from tiny L1? Instead, touch via Ifetch: the L1I misses but
     L2 already holds the line from the data access. *)
  let c = Hierarchy.access h Hierarchy.Ifetch 0x20000 in
  check ci "L1 miss, L2 hit"
    (Hierarchy.latencies.Hierarchy.l1_hit
     + Hierarchy.latencies.Hierarchy.l2_hit)
    c

let test_hierarchy_maintenance () =
  let clock = Clock.create () in
  let h = Hierarchy.create clock in
  ignore (Hierarchy.access h Hierarchy.Store 0x400);
  check cb "dirty seen" true (Hierarchy.dirty_in_range h 0x400 4);
  ignore (Hierarchy.clean_dcache_range h 0x400 32);
  check cb "clean clears" false (Hierarchy.dirty_in_range h 0x400 4);
  ignore (Hierarchy.access h Hierarchy.Store 0x800);
  ignore (Hierarchy.invalidate_dcache_range h 0x800 32);
  check cb "invalidate clears" false (Hierarchy.dirty_in_range h 0x800 4)

let test_hierarchy_uncached () =
  let clock = Clock.create () in
  let h = Hierarchy.create clock in
  let c = Hierarchy.access_uncached h in
  check cb "device access has a cost" true (c > 0);
  check ci "clock moved" c (Clock.now clock)

(* [access_words] against the scalar loop it stands for: runs of 1..40
   words (loads, stores and fetches, aligned or not, across line
   boundaries, onto cold or conflicting lines) applied to two
   hierarchies, one per side, must leave the same clock, counters,
   valid/dirty line counts and epochs at every level, and a follow-up
   access must cost the same. Small caches force evictions. *)
let words_geometry =
  ( { Cache.name = "L1I"; size_bytes = 512; ways = 2; line_size = 32 },
    { Cache.name = "L1D"; size_bytes = 1024; ways = 2; line_size = 32 },
    { Cache.name = "L2"; size_bytes = 4096; ways = 4; line_size = 32 } )

let hier_state h clock =
  let level c =
    [ Cache.hits c; Cache.misses c; Cache.valid_lines c; Cache.dirty_lines c;
      Cache.epoch c ]
  in
  Clock.now clock
  :: List.concat_map level [ Hierarchy.l1i h; Hierarchy.l1d h; Hierarchy.l2 h ]

let prop_access_words_is_scalar =
  let kind_of = function
    | 0 -> Hierarchy.Load
    | 1 -> Hierarchy.Store
    | _ -> Hierarchy.Ifetch
  in
  let op =
    QCheck2.Gen.(
      quad (int_bound 2) (int_bound 0x3FFF) (int_range 1 40) (int_bound 3))
  in
  QCheck2.Test.make ~name:"access_words equals n scalar accesses" ~count:200
    ~print:QCheck2.Print.(list (quad int int int int))
    QCheck2.Gen.(list_size (int_range 1 30) op)
    (fun ops ->
       let l1i, l1d, l2 = words_geometry in
       let make () =
         let clock = Clock.create () in
         (Hierarchy.create_custom ~l1i ~l1d ~l2 clock, clock)
       in
       let hw, cw = make () and hs, cs = make () in
       List.for_all
         (fun (k, off, n, skew) ->
            let kind = kind_of k in
            (* One run in four starts off word alignment. *)
            let a = 0x10000 + (off land lnot 3) + (if skew = 0 then 1 else 0) in
            let cost = Hierarchy.access_words hw kind a n in
            let scalar = ref 0 in
            for j = 0 to n - 1 do
              scalar := !scalar + Hierarchy.access hs kind (a + (4 * j))
            done;
            let next = 0x10000 + ((off * 7) land 0x3FFC) in
            cost = !scalar
            && hier_state hw cw = hier_state hs cs
            && Hierarchy.access hw Hierarchy.Load next
               = Hierarchy.access hs Hierarchy.Load next
            && hier_state hw cw = hier_state hs cs)
         ops)

(* The incremental valid/dirty counters (they feed the full-cache
   maintenance charges) against a recount. Every line any op can touch
   lies in a pool of [counter_pool] lines, so probing each pool line
   recounts a level exactly. Ops: scalar accesses, word runs, fused
   two-level walks whose slot hints are fresh, stale (left by earlier
   walks elsewhere) or garbage (in bounds, unrelated), range and full
   maintenance. The caches are small and the pool overfills both
   levels, so store fills keep evicting dirty lines. *)
let counter_geometry =
  ( { Cache.name = "L1I"; size_bytes = 256; ways = 2; line_size = 32 },
    { Cache.name = "L1D"; size_bytes = 512; ways = 2; line_size = 32 },
    { Cache.name = "L2"; size_bytes = 2048; ways = 4; line_size = 32 } )

let counter_pool = 96
let counter_base = 0x20000

let recount c =
  let valid = ref 0 and dirty = ref 0 in
  for k = 0 to counter_pool - 1 do
    let a = counter_base + (32 * k) in
    if Cache.probe c a then incr valid;
    if Cache.dirty_in_range c a 1 then incr dirty
  done;
  (!valid, !dirty)

let prop_cache_counters =
  let op =
    QCheck2.Gen.(
      pair
        (quad (int_bound 8) (int_bound (counter_pool - 1)) (int_range 1 12)
           (int_bound 2))
        (int_bound 2))
  in
  QCheck2.Test.make ~name:"cache valid/dirty counters match a recount"
    ~count:300
    ~print:QCheck2.Print.(list (pair (quad int int int int) int))
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
       let l1i, l1d, l2 = counter_geometry in
       let h = Hierarchy.create_custom ~l1i ~l1d ~l2 (Clock.create ()) in
       let levels = [ Hierarchy.l1i h; Hierarchy.l1d h; Hierarchy.l2 h ] in
       let kind = function
         | 0 -> Hierarchy.Load
         | 1 -> Hierarchy.Store
         | _ -> Hierarchy.Ifetch
       in
       (* Slot records shared by every walk: a later walk elsewhere
          reads an earlier walk's slots as stale hints. *)
       let slots = Array.make 12 (-1) and next_slots = Array.make 12 (-1) in
       List.for_all
         (fun ((code, line, n, k), hints) ->
            let a = counter_base + (32 * line) in
            let n = min n (counter_pool - line) in
            let len = 32 * n in
            (match code with
             | 0 -> ignore (Hierarchy.access h (kind k) a)
             | 1 ->
               (* Word runs, from a word inside the line. *)
               let first = a + (4 * (n land 7)) in
               let room = (counter_base + (32 * counter_pool) - first) / 4 in
               ignore (Hierarchy.access_words h (kind k) first (min (5 * n) room))
             | 2 ->
               let l1 = if k = 2 then Hierarchy.l1i h else Hierarchy.l1d h in
               (match hints with
                | 0 ->
                  Array.fill slots 0 12 (-1);
                  Array.fill next_slots 0 12 (-1)
                | 1 -> ()
                | _ ->
                  for j = 0 to 11 do
                    slots.(j) <- ((line * 7) + (j * 13)) mod Cache.lines l1;
                    next_slots.(j) <-
                      ((line * 11) + (j * 5)) mod Cache.lines (Hierarchy.l2 h)
                  done);
               ignore
                 (Cache.run_through l1 (Hierarchy.l2 h) ~lat_next_hit:1
                    ~lat_next_miss:2 ~a ~n ~write:(k = 1) ~slots ~next_slots
                    ~from:0)
             | 3 -> ignore (Hierarchy.clean_dcache_range h a len)
             | 4 -> ignore (Hierarchy.invalidate_dcache_range h a len)
             | 5 -> ignore (Hierarchy.clean_invalidate_all h)
             | 6 -> ignore (Cache.invalidate_all (Hierarchy.l1i h))
             | 7 -> ignore (Cache.clean_all (List.nth levels k))
             | _ -> ignore (Cache.invalidate_all (List.nth levels k)));
            List.for_all
              (fun c -> recount c = (Cache.valid_lines c, Cache.dirty_lines c))
              levels)
         ops)

(* [Cache.run_through] against per-line [Cache.access] at the A9
   geometry: the 4-way L1s take the written-out set scan, the 8-way L2
   its own hit scan and [Cache.victim]. Every line of the pool maps into L1 sets 0–6, 40
   lines to a set, so most walk lines miss and evict. Both sides run
   the same ops: walks with fresh, stale or garbage slot hints (the
   reference side does [access] on the L1 and, on a miss, on the L2),
   one-line invalidations (a non-live way in the middle of a set),
   full invalidations, and age ties. Every fill and hit stamps a fresh
   tick, so two live ways share an age only after [rehit ~n:0], which
   restamps a slot with the current tick: the tie op uses it to make
   two lines of one set equally old, which the victim rule must break
   towards the earlier way. Counters are compared after every op, and
   every pool line's residency and dirtiness at the end. *)
let a9_pool_base = 0x100000
let a9_pool_lines = 40

let prop_run_through_a9 =
  let op =
    QCheck2.Gen.(
      quad (int_bound 6) (int_bound (a9_pool_lines - 1)) (int_bound 3)
        (pair (int_range 1 4) (int_bound 2)))
  in
  QCheck2.Test.make ~name:"run_through = per-line access at the A9 geometry"
    ~count:300
    ~print:QCheck2.Print.(list (quad int int int (pair int int)))
    QCheck2.Gen.(list_size (int_range 1 120) op)
    (fun ops ->
       let hw = Hierarchy.create (Clock.create ())
       and hs = Hierarchy.create (Clock.create ()) in
       let levels h = [ Hierarchy.l1i h; Hierarchy.l1d h; Hierarchy.l2 h ] in
       let counters h =
         List.concat_map
           (fun c ->
              [ Cache.hits c; Cache.misses c; Cache.valid_lines c;
                Cache.dirty_lines c; Cache.epoch c ])
           (levels h)
       in
       let slots = Array.make 4 (-1) and next_slots = Array.make 4 (-1) in
       let pool_state h =
         List.concat_map
           (fun c ->
              List.init (a9_pool_lines * 8) (fun k ->
                  let a = a9_pool_base + ((k / 8) * 8192) + (32 * (k mod 8)) in
                  (Cache.probe c a, Cache.dirty_in_range c a 1)))
           (levels h)
       in
       List.for_all
         (fun (code, j, s, (n, k)) ->
            let a = a9_pool_base + (j * 8192) + (32 * s) in
            let l1 h = if k = 2 then Hierarchy.l1i h else Hierarchy.l1d h in
            let write = k = 1 in
            let same =
              match code with
              | 0 | 1 | 2 ->
                (match code with
                 | 0 ->
                   Array.fill slots 0 4 (-1);
                   Array.fill next_slots 0 4 (-1)
                 | 1 -> ()
                 | _ ->
                   for i = 0 to 3 do
                     slots.(i) <- ((j * 7) + (i * 13)) mod Cache.lines (l1 hw);
                     next_slots.(i) <-
                       ((j * 11) + (i * 5)) mod Cache.lines (Hierarchy.l2 hw)
                   done);
                let extra, _ =
                  Cache.run_through (l1 hw) (Hierarchy.l2 hw) ~lat_next_hit:1
                    ~lat_next_miss:2 ~a ~n ~write ~slots ~next_slots ~from:0
                in
                let reference = ref 0 in
                for i = 0 to n - 1 do
                  let a = a + (32 * i) in
                  match Cache.access (l1 hs) a ~write with
                  | `Hit -> ()
                  | `Miss ->
                    reference :=
                      !reference
                      + (match Cache.access (Hierarchy.l2 hs) a ~write with
                        | `Hit -> 1
                        | `Miss -> 2)
                done;
                extra = !reference
              | 3 ->
                (* Line [a] and the line 8 KB above it (same L1 set) end
                   up with equal ages. *)
                List.iter
                  (fun h ->
                     let c = l1 h in
                     let s = Cache.access_word c a ~write:false in
                     ignore (Cache.access c (a + 8192) ~write:false);
                     Cache.rehit c (if s >= 0 then s else lnot s) ~write:false
                       ~n:0)
                  [ hw; hs ];
                true
              | 4 | 5 ->
                List.iter (fun h -> ignore (Cache.invalidate_range (l1 h) a 32))
                  [ hw; hs ];
                true
              | _ ->
                List.iter
                  (fun h -> ignore (Cache.invalidate_all (List.nth (levels h) k)))
                  [ hw; hs ];
                true
            in
            same && counters hw = counters hs)
         ops
       && pool_state hw = pool_state hs)

(* A fresh cache against one that was filled, dirtied and emptied by
   [invalidate_all], at the A9 L1 and L2 geometries. The used pair's
   stale ages are newest in way 0 and oldest in the last way of every
   set, while a fresh cache's are all -1, so a victim rule that read a
   non-live slot's age would pick a different way in the two. Every
   access's result (hit slot or [lnot] fill slot), every walk's cost
   and recorded slots, every range op's count and the final residency
   and dirtiness of every pool line must agree. Pool lines sit 64 KB
   apart, so twelve of them share one set at both levels and evict. *)
let fresh_pool_base = 0x100000
let fresh_pool_lines = 12

let a9_l1_cfg = { Cache.name = "L1D"; size_bytes = 32 * 1024; ways = 4; line_size = 32 }
let a9_l2_cfg = { Cache.name = "L2"; size_bytes = 512 * 1024; ways = 8; line_size = 32 }

(* Fill every way of every set with a store, then hit the ways again
   from the last to the first, so way 0 is the newest; then drop it all. *)
let used_cache cfg =
  let c = Cache.create cfg in
  let sets = Cache.sets c and ways = cfg.Cache.ways in
  let a set way = 32 * (set + (sets * way)) in
  for way = 0 to ways - 1 do
    for set = 0 to sets - 1 do
      ignore (Cache.access c (a set way) ~write:true)
    done
  done;
  for way = ways - 1 downto 0 do
    for set = 0 to sets - 1 do
      ignore (Cache.access c (a set way) ~write:false)
    done
  done;
  ignore (Cache.invalidate_all c);
  c

let prop_fresh_is_invalidated =
  let op =
    QCheck2.Gen.(
      quad (int_bound 4) (int_bound (fresh_pool_lines - 1)) (int_bound 3)
        (pair (int_range 1 4) (int_bound 1)))
  in
  QCheck2.Test.make ~name:"a fresh cache behaves like an invalidated one"
    ~count:100
    ~print:QCheck2.Print.(list (quad int int int (pair int int)))
    QCheck2.Gen.(list_size (int_range 1 150) op)
    (fun ops ->
       let fresh = (Cache.create a9_l1_cfg, Cache.create a9_l2_cfg) in
       let used = (used_cache a9_l1_cfg, used_cache a9_l2_cfg) in
       let level (l1, l2) lvl = if lvl = 0 then l1 else l2 in
       let run (l1, l2) (code, j, s, (n, lvl)) =
         let a = fresh_pool_base + (j * 65536) + (32 * s) in
         let c = level (l1, l2) lvl in
         match code with
         | 0 ->
           (* A hit or fill, then [n - 1] more hits on its slot (0: an
              age tie with the line filled last). *)
           let r = Cache.access_word c a ~write:(n land 1 = 1) in
           Cache.rehit c (if r >= 0 then r else lnot r) ~write:false ~n:(n - 1);
           [ r ]
         | 1 ->
           let slots = Array.make 4 (-1) and next_slots = Array.make 4 (-1) in
           let extra, moved =
             Cache.run_through l1 l2 ~lat_next_hit:1 ~lat_next_miss:2 ~a ~n
               ~write:(lvl = 1) ~slots ~next_slots ~from:0
           in
           extra :: moved :: Array.to_list slots @ Array.to_list next_slots
         | 2 -> [ Cache.invalidate_range c a (32 * n) ]
         | 3 -> [ Cache.clean_range c a (32 * n) ]
         | _ -> [ Cache.invalidate_all c ]
       in
       let residency pair =
         List.concat_map
           (fun c ->
              Cache.valid_lines c :: Cache.dirty_lines c
              :: List.init (fresh_pool_lines * 8) (fun k ->
                  let a = fresh_pool_base + ((k / 8) * 65536) + (32 * (k mod 8)) in
                  (if Cache.probe c a then 1 else 0)
                  + if Cache.dirty_in_range c a 1 then 2 else 0))
           [ fst pair; snd pair ]
       in
       List.for_all (fun o -> run fresh o = run used o) ops
       && residency fresh = residency used)

(* --- TLB probe against a reference model ---

   The model mirrors the TLB slot by slot (liveness, tag, entry, LRU
   age), and its probe is a plain linear scan of the set. Every entry
   carries a unique [ppage], so [lookup]'s result names the slot it
   came from. Model slot [i] is paired with the TLB slot that [peek]
   returns right after an insert lands in [i]: that insert is the
   first match for its own (asid, vpage), so the pairing is exact, and
   it must stay one to one. *)

type tlb_model_slot = {
  mutable live : bool;
  mutable m_asid : int;
  mutable m_vpage : int;
  mutable m_entry : Tlb.entry;
  mutable age : int;
}

let tlb_model_cfg = { Tlb.entries = 8; ways = 2 }
let tlb_model_asids = 4
let tlb_model_vpages = 12

let prop_tlb_peek_is_scan =
  let ways = tlb_model_cfg.Tlb.ways in
  let sets = tlb_model_cfg.Tlb.entries / ways in
  let op =
    QCheck2.Gen.(
      quad (int_bound 9) (int_bound (tlb_model_asids - 1))
        (int_bound (tlb_model_vpages - 1)) bool)
  in
  (* Every case starts with a per-ASID and a global entry for the same
     vpage, ahead of each other in both orders. *)
  let prefix =
    [ (0, 1, 3, false); (0, 2, 3, true); (0, 2, 5, true); (0, 1, 5, false) ]
  in
  QCheck2.Test.make ~name:"tlb peek and lookup match a linear scan"
    ~count:300
    ~print:QCheck2.Print.(list (quad int int int bool))
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
       let t = Tlb.create tlb_model_cfg in
       let m =
         Array.init tlb_model_cfg.Tlb.entries (fun _ ->
             { live = false; m_asid = 0; m_vpage = 0;
               m_entry = entry 0; age = 0 })
       in
       let paired = Array.make tlb_model_cfg.Tlb.entries Tlb.null_slot in
       let tick = ref 0 and hits = ref 0 and misses = ref 0 in
       let live_count () =
         Array.fold_left (fun n s -> if s.live then n + 1 else n) 0 m
       in
       let matches i ~asid ~vpage =
         let s = m.(i) in
         s.live && s.m_vpage = vpage
         && (s.m_entry.Tlb.global || s.m_asid = asid)
       in
       let scan ~asid ~vpage =
         let base = (vpage land (sets - 1)) * ways in
         let rec go w =
           if w = ways then -1
           else if matches (base + w) ~asid ~vpage then base + w
           else go (w + 1)
         in
         go 0
       in
       let insert ~asid ~vpage e =
         incr tick;
         let base = (vpage land (sets - 1)) * ways in
         let i =
           match scan ~asid ~vpage with
           | -1 ->
             let best = ref base in
             for w = 1 to ways - 1 do
               let s = m.(base + w) in
               if not s.live then begin
                 if m.(!best).live then best := base + w
               end
               else if m.(!best).live && s.age < m.(!best).age then
                 best := base + w
             done;
             !best
           | i -> i
         in
         let s = m.(i) in
         s.live <- true;
         s.m_asid <- asid;
         s.m_vpage <- vpage;
         s.m_entry <- e;
         s.age <- !tick;
         Tlb.insert t ~asid ~vpage e;
         let slot = Tlb.peek t ~asid ~vpage in
         let fresh = ref (slot != Tlb.null_slot) in
         Array.iteri
           (fun j p -> if j <> i && p == slot then fresh := false)
           paired;
         paired.(i) <- slot;
         !fresh
       in
       let hit i =
         incr tick;
         incr hits;
         m.(i).age <- !tick
       in
       let step n (code, asid, vpage, global) =
         match code with
         | 0 | 1 | 2 -> insert ~asid ~vpage (entry ~global n)
         | 3 | 4 | 5 -> (
             match scan ~asid ~vpage, lookup t ~asid ~vpage with
             | -1, None ->
               incr tick;
               incr misses;
               true
             | -1, Some _ | _, None -> false
             | i, Some e ->
               hit i;
               e == m.(i).m_entry)
         | 6 ->
           (* A fast-path hit: peek, then replay it with refresh. *)
           let slot = Tlb.peek t ~asid ~vpage in
           if slot != Tlb.null_slot then begin
             Tlb.refresh t slot;
             let i = scan ~asid ~vpage in
             if i >= 0 then hit i;
             i >= 0
           end
           else true
         | 7 ->
           Tlb.flush_page t ~asid ~vpage;
           Array.iteri
             (fun i s -> if matches i ~asid ~vpage then s.live <- false)
             m;
           true
         | 8 ->
           let dropped = ref 0 in
           Array.iter
             (fun s ->
                if s.live && (not s.m_entry.Tlb.global) && s.m_asid = asid
                then begin
                  s.live <- false;
                  incr dropped
                end)
             m;
           Tlb.flush_asid t asid = !dropped
         | _ ->
           let live = live_count () in
           Array.iter (fun s -> s.live <- false) m;
           Tlb.flush_all t = live
       in
       let agrees () =
         let ok = ref true in
         for asid = 0 to tlb_model_asids - 1 do
           for vpage = 0 to tlb_model_vpages - 1 do
             let slot = Tlb.peek t ~asid ~vpage in
             match scan ~asid ~vpage with
             | -1 -> if slot != Tlb.null_slot then ok := false
             | i -> if slot != paired.(i) then ok := false
           done
         done;
         !ok
         && Tlb.hits t = !hits && Tlb.misses t = !misses
         && Tlb.live_entries t = live_count ()
       in
       List.for_all Fun.id
         (List.mapi (fun n o -> step (n + 1) o && agrees ()) (prefix @ ops)))

(* Per-set validity against a model. The model is the record a
   fast-path memo keeps: per (asid, vpage), the slot [peek] returned
   and the page's [Tlb.set_version] at that time. Whenever a record's
   version is still the page's, [peek] must return the recorded slot
   (a recorded miss included); every record is then refreshed. Inserts
   and [flush_page] must leave every other set's version alone, and
   no version passes the epoch. Ops are insert, probe, [flush_page],
   [flush_asid] and [flush_all], on an 8-entry 2-way TLB; each case
   starts with a global insert at a vpage another ASID holds
   non-globally. *)
let prop_tlb_set_versions =
  let ways = tlb_model_cfg.Tlb.ways in
  let sets = tlb_model_cfg.Tlb.entries / ways in
  let op =
    QCheck2.Gen.(
      quad (int_bound 7) (int_bound (tlb_model_asids - 1))
        (int_bound (tlb_model_vpages - 1)) bool)
  in
  let prefix = [ (0, 1, 3, false); (0, 2, 3, true) ] in
  QCheck2.Test.make ~name:"tlb set versions certify peek"
    ~count:300
    ~print:QCheck2.Print.(list (quad int int int bool))
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
       let t = Tlb.create tlb_model_cfg in
       let key asid vpage = (asid * tlb_model_vpages) + vpage in
       let n_keys = tlb_model_asids * tlb_model_vpages in
       let rec_slot = Array.make n_keys Tlb.null_slot in
       let rec_ver = Array.make n_keys (-1) in
       let versions () = Array.init sets (fun s -> Tlb.set_version t s) in
       let check_and_record () =
         let ok = ref true in
         for asid = 0 to tlb_model_asids - 1 do
           for vpage = 0 to tlb_model_vpages - 1 do
             let k = key asid vpage in
             let v = Tlb.set_version t vpage in
             let slot = Tlb.peek t ~asid ~vpage in
             if rec_ver.(k) = v && slot != rec_slot.(k) then ok := false;
             if v > Tlb.epoch t then ok := false;
             rec_slot.(k) <- slot;
             rec_ver.(k) <- v
           done
         done;
         !ok
       in
       let others_kept before vpage =
         let after = versions () in
         let kept = ref true in
         Array.iteri
           (fun s b ->
              if s <> vpage land (sets - 1) && after.(s) <> b then
                kept := false)
           before;
         !kept
       in
       let step n (code, asid, vpage, global) =
         let before = versions () in
         (match code with
          | 0 | 1 | 2 -> Tlb.insert t ~asid ~vpage (entry ~global n)
          | 3 | 4 -> ignore (Tlb.probe t ~asid ~vpage)
          | 5 -> Tlb.flush_page t ~asid ~vpage
          | 6 -> ignore (Tlb.flush_asid t asid)
          | _ -> ignore (Tlb.flush_all t));
         (code > 5 || others_kept before vpage) && check_and_record ()
       in
       ignore (check_and_record ());
       List.for_all Fun.id
         (List.mapi (fun n o -> step (n + 1) o) (prefix @ ops)))

(* The probe allocates nothing, on hits and misses alike. *)
let test_tlb_peek_allocates_nothing () =
  let t = Tlb.create Tlb.cortex_a9 in
  for v = 0 to 63 do
    Tlb.insert t ~asid:1 ~vpage:v (entry v)
  done;
  let found = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let vpage = (if i land 1 = 0 then 0 else 64) + ((i lsr 1) land 63) in
    if Tlb.peek t ~asid:1 ~vpage != Tlb.null_slot then incr found
  done;
  let words = Gc.minor_words () -. before in
  check ci "half the probes hit" 5_000 !found;
  check (Alcotest.float 0.) "minor words over 10k probes" 0. words

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "cachesim",
    [ t "cache geometry" test_cache_geometry;
      t "cache hit/miss" test_cache_hit_miss;
      t "cache LRU" test_cache_lru;
      t "cache dirty/clean" test_cache_dirty;
      t "cache invalidate" test_cache_invalidate;
      t "cache O(1) full maintenance" test_cache_gen_stamped_full_ops;
      t "cache large-range scan" test_cache_large_range_scan;
      QCheck_alcotest.to_alcotest prop_probe_after_access;
      t "tlb hit/miss" test_tlb_hit_miss;
      t "tlb asid isolation" test_tlb_asid_isolation;
      t "tlb global entries" test_tlb_global;
      t "tlb flush asid" test_tlb_flush_asid;
      t "tlb flush page" test_tlb_flush_page;
      t "tlb O(1) flush_all" test_tlb_gen_stamped_flush;
      t "tlb eviction" test_tlb_eviction;
      t "hierarchy latency ordering" test_hierarchy_latency_ordering;
      t "hierarchy l2 hit" test_hierarchy_l2_hit;
      t "hierarchy maintenance" test_hierarchy_maintenance;
      t "hierarchy uncached" test_hierarchy_uncached;
      QCheck_alcotest.to_alcotest prop_access_words_is_scalar;
      QCheck_alcotest.to_alcotest prop_cache_counters;
      QCheck_alcotest.to_alcotest prop_run_through_a9;
      QCheck_alcotest.to_alcotest prop_fresh_is_invalidated;
      QCheck_alcotest.to_alcotest prop_tlb_peek_is_scan;
      QCheck_alcotest.to_alcotest prop_tlb_set_versions;
      t "tlb peek allocates nothing" test_tlb_peek_allocates_nothing ] )
