(* Equivalence of the Exec fast path with the scalar reference walk.

   The fast path (per-CPU micro-TLB, compiled footprint programs with
   partial-warm replay, O(1) generation-stamped maintenance) promises
   to be bit-identical to the reference implementation: same simulated
   cycles and the same hit/miss counters in every cache level and the
   TLB, under any interleaving of footprint runs, pinned traces
   replayed back to back (the whole-program warm record), single-word
   data accesses, cache maintenance, TLB flushes, ASID/DACR/privilege
   changes and page-table edits. This test drives a randomized op
   sequence through three fresh boards — [Fastpath] enabled, disabled,
   and enabled with word runs issued as the scalar loop they stand
   for — and compares the full fingerprint after every op: the
   counters, every op's fault outcome and the values it read, and an
   uncharged read-back of every word the ops touched. The two enabled
   boards must also agree on the micro-TLB counters. *)

let check = Alcotest.check

(* --- randomized op DSL --- *)

type op =
  | Run of int                 (* footprint pool index *)
  | Touch of int * int * int
      (* kind (0 load / 1 store / 2 fetch), off, len: a one-range
         footprint, pinned afresh for the op *)
  | Word of int * int * int * int
      (* access (0 read / 1 write word, 2 read / 3 write byte), target
         (0 data, 1.. scratch page), offset, value *)
  | Words of int * int * int * int
      (* a word run ({!Zynq.vread_words} / {!Zynq.vwrite_words}): 0 read
         / 1 write, target (0 data, 1.. scratch page, last: the PL
         interface page), offset, word count 1..40 *)
  | Set_asid of int
  | Set_dacr of int * int      (* domain, 0 no access / 1 client / 2 manager *)
  | Set_priv of bool
  | Flush_asid of int
  | Flush_all
  | Inval_d of int * int       (* data offset, len *)
  | Clean_d of int * int
  | Inval_i
  | Pt_toggle of int * bool    (* scratch page index; flush the TLB page *)
  | Pt_remap of int * int * bool
      (* scratch page index, alternate physical frame index; flush —
         remaps virt to a *different* physical frame, the case where
         cache epochs stay untouched while the translation changes *)
  | Pinned of int * int        (* pinned trace index, back-to-back runs *)
  | Pinned_around of int * int
      (* pinned trace index, maintenance (0 TLB flush all, 1 TLB flush
         ASID, 2 D-clean, 3 D-invalidate, 4 I-invalidate) between two
         runs of the trace *)

let data_base = Address_map.kernel_data_base + 0x40000
let code_base = Address_map.kernel_code_base + 0x8000

(* Scratch pages live outside every region the kernel table section-maps,
   so the DSL can map and unmap them page-by-page. *)
let scratch_base = 0x3000_0000
let scratch_pages = 4
let scratch_page i = scratch_base + (i * Addr.page_size)

(* Alternate physical frames for [Pt_remap], disjoint from the scratch
   pages' identity frames so a remap genuinely moves the page to a
   different physical base. *)
let scratch_frames = 4
let scratch_frame i = scratch_base + 0x10_0000 + (i * Addr.page_size)

(* A page mapped onto PRR 0's register group, so a run can land on
   the PL window (uncached, scalar path). Only the group's
   [Prr.Reg.count] words decode. *)
let pl_page = scratch_base + 0x8000
let pl_target = scratch_pages + 1

(* A small pool of footprints, each pinned once per board and
   referenced by index so the same trace recurs (that is what compiles
   and then replays the programs).
   Data ranges overlap across footprints to force eviction interplay;
   f6 reads a scratch page whose mapping the DSL edits underneath it. *)
let pool =
  [| { Exec.label = "f0"; code = { Exec.base = code_base; len = 256 };
       reads = []; writes = []; base_cycles = 10 };
     { Exec.label = "f1"; code = { Exec.base = code_base + 0x400; len = 128 };
       reads = [ { Exec.base = data_base; len = 256 } ];
       writes = []; base_cycles = 0 };
     { Exec.label = "f2"; code = { Exec.base = code_base + 0x800; len = 512 };
       reads = [ { Exec.base = data_base + 128; len = 512 } ];
       writes = [ { Exec.base = data_base + 0x1000; len = 128 } ];
       base_cycles = 25 };
     { Exec.label = "f3"; code = { Exec.base = code_base; len = 64 };
       reads = [ { Exec.base = data_base + 0x2000; len = 64 };
                 { Exec.base = data_base; len = 96 } ];
       writes = [ { Exec.base = data_base + 0x2000; len = 64 } ];
       base_cycles = 5 };
     { Exec.label = "f4"; code = { Exec.base = code_base + 0x7000; len = 4096 };
       reads = [ { Exec.base = data_base + 0x8000; len = 8192 } ];
       writes = [ { Exec.base = data_base + 0x10000; len = 4096 } ];
       base_cycles = 100 };
     { Exec.label = "f5"; code = { Exec.base = code_base + 0x400; len = 128 };
       reads = [ { Exec.base = data_base; len = 256 } ];
       writes = [ { Exec.base = data_base + 64; len = 32 } ];
       base_cycles = 0 };
     { Exec.label = "f6"; code = { Exec.base = code_base + 0x100; len = 64 };
       reads = [ { Exec.base = scratch_page 0; len = 128 } ];
       writes = [ { Exec.base = scratch_page 1; len = 64 } ];
       base_cycles = 0 } |]

(* Pinned sequences over the pool: kernel-only footprints (no scratch
   page, so a trace faults on its first access or not at all), one of
   them ([| 4; 0 |]) 520 lines long. Replayed back to back, a trace reaches
   the whole-program warm record; maintenance in between must knock
   it back to the per-run checks. *)
let pinned_seqs = [| [| 0; 1 |]; [| 2; 3; 5 |]; [| 1 |]; [| 4; 0 |] |]

(* Word targets: the data pages the footprints also touch (identity
   mapped), or one of the scratch pages (possibly unmapped or remapped).
   Word accesses are 4-aligned, byte accesses are not. *)
let word_addr k target off =
  let off = if k < 2 then off land lnot 3 else off in
  if target = 0 then data_base + (off land 0x3FFF)
  else scratch_page (target - 1) + (off land 0xFFF)

(* Every physical word an access at [va] can have reached on either
   board: the identity frame, plus each alternate frame for a scratch
   page. *)
let phys_aliases va =
  let w = va land lnot 3 in
  if w >= scratch_base && w < scratch_page scratch_pages then
    w :: List.init scratch_frames (fun p -> scratch_frame p + Addr.page_offset w)
  else [ w ]

(* Runs on scratch page 3 that cross the page end run into the
   never-mapped page above it. *)
let words_run target off n =
  if target = pl_target then
    let r = off land (Prr.Reg.count - 1) in
    (pl_page + (4 * r), min n (Prr.Reg.count - r))
  else if target = 0 then (data_base + (off land 0x3FFC), n)
  else (scratch_page (target - 1) + (off land 0xFFC), n)

let gen_op =
  QCheck.Gen.(frequency
    [ 8, map (fun i -> Run i) (int_bound (Array.length pool - 1));
      4, map3 (fun (k, t) off n -> Words (k, t, off, n))
           (pair (int_bound 1) (int_bound pl_target))
           (int_bound 0x3FFF) (int_range 1 40);
      2, map3 (fun k off len -> Touch (k, off * 4, 4 + (len * 4)))
           (int_bound 2) (int_bound 0x1000) (int_bound 127);
      6, map3 (fun (k, t) off v -> Word (k, t, off, v))
           (pair (int_bound 3) (int_bound scratch_pages))
           (int_bound 0x3FFF) (int_bound 0x3FFF_FFFF);
      1, map (fun a -> Set_asid a) (int_bound 3);
      1, map2 (fun d a -> Set_dacr (d, a)) (int_bound 1) (int_bound 2);
      1, map (fun p -> Set_priv p) bool;
      1, map (fun a -> Flush_asid a) (int_bound 3);
      1, return Flush_all;
      1, map2 (fun off len -> Inval_d (off * 4, 4 + (len * 4)))
           (int_bound 0x1000) (int_bound 255);
      1, map2 (fun off len -> Clean_d (off * 4, 4 + (len * 4)))
           (int_bound 0x1000) (int_bound 255);
      1, return Inval_i;
      2, map2 (fun i flush -> Pt_toggle (i, flush))
           (int_bound (scratch_pages - 1)) bool;
      2, map3 (fun i p flush -> Pt_remap (i, p, flush))
           (int_bound (scratch_pages - 1)) (int_bound (scratch_frames - 1))
           bool;
      4, map2 (fun i n -> Pinned (i, n))
           (int_bound (Array.length pinned_seqs - 1)) (int_range 1 4);
      2, map2 (fun i m -> Pinned_around (i, m))
           (int_bound (Array.length pinned_seqs - 1)) (int_bound 4) ])

let show_op = function
  | Run i -> Printf.sprintf "Run %d" i
  | Touch (k, o, l) -> Printf.sprintf "Touch (%d, 0x%x, %d)" k o l
  | Word (k, t, o, v) -> Printf.sprintf "Word (%d, %d, 0x%x, 0x%x)" k t o v
  | Words (k, t, o, n) -> Printf.sprintf "Words (%d, %d, 0x%x, %d)" k t o n
  | Set_asid a -> Printf.sprintf "Set_asid %d" a
  | Set_dacr (d, a) -> Printf.sprintf "Set_dacr (%d, %d)" d a
  | Set_priv p -> Printf.sprintf "Set_priv %b" p
  | Flush_asid a -> Printf.sprintf "Flush_asid %d" a
  | Flush_all -> "Flush_all"
  | Inval_d (o, l) -> Printf.sprintf "Inval_d (0x%x, %d)" o l
  | Clean_d (o, l) -> Printf.sprintf "Clean_d (0x%x, %d)" o l
  | Inval_i -> "Inval_i"
  | Pt_toggle (i, f) -> Printf.sprintf "Pt_toggle (%d, %b)" i f
  | Pt_remap (i, p, f) -> Printf.sprintf "Pt_remap (%d, %d, %b)" i p f
  | Pinned (i, n) -> Printf.sprintf "Pinned (%d, %d)" i n
  | Pinned_around (i, m) -> Printf.sprintf "Pinned_around (%d, %d)" i m

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 10 120) gen_op)

(* --- the two worlds --- *)

type board = {
  z : Zynq.t;
  km : Kmem.t;
  scalar_words : bool;  (* word runs as the loop of single-word calls *)
  runs : Fastpath.pinned array;  (* [pool], one trace per footprint *)
  pins : Fastpath.pinned array;  (* [pinned_seqs], interned per board *)
  mutable priv : bool;
  mutable outcomes : int;  (* digest of every op's fault outcome and reads *)
  mutable touched : Addr.t list;  (* word addresses the ops accessed *)
}

let make_board ?(scalar_words = false) ~fast () =
  let z = Zynq.create () in
  let km = Kmem.create z in
  Fastpath.set_enabled z.Zynq.fast fast;
  Page_table.map_page (Kmem.kernel_pt km) ~virt:pl_page
    ~phys:Address_map.prr_regs_base ~domain:Kmem.dom_kernel ~ap:Pte.Ap_priv
    ~global:true;
  let pins =
    Array.map (fun seq -> Exec.pin (Array.map (Array.get pool) seq)) pinned_seqs
  in
  { z; km; scalar_words; runs = Array.map Exec.pin1 pool; pins; priv = true;
    outcomes = 0; touched = [] }

let note b x = b.outcomes <- ((b.outcomes * 31) + x) land max_int

(* Run [f] and fold its result (or its fault) into the outcome digest:
   a fault, with its address and kind, is part of the fingerprint, not
   an error. *)
let guarded b f =
  match f () with
  | v -> note b (2 * v)
  | exception Mmu.Fault fault -> note b ((2 * Hashtbl.hash fault) + 1)

let dacr_of = function 0 -> Dacr.No_access | 1 -> Dacr.Client | _ -> Dacr.Manager

let word_op b k a v =
  let z = b.z and priv = b.priv in
  match k with
  | 0 -> Zynq.vread_word z ~priv a
  | 1 -> Zynq.vwrite_word z ~priv a v; 0
  | 2 -> Zynq.vread_u8 z ~priv a
  | _ -> Zynq.vwrite_u8 z ~priv a v; 0

(* A word run; its write values derive from the offset, and every
   value read (also those before a fault) joins the digest. *)
let words_op b k target off n =
  let z = b.z and priv = b.priv in
  let a, n = words_run target off n in
  if target <> pl_target then
    for j = 0 to n - 1 do
      b.touched <- (a + (4 * j)) :: b.touched
    done;
  let buf =
    Array.init n (fun j -> if k = 1 then (off * 0x9E37 + j) land 0xFFFF_FFFF else 0)
  in
  guarded b (fun () ->
      (if b.scalar_words then
         for j = 0 to n - 1 do
           if k = 1 then Zynq.vwrite_word z ~priv (a + (4 * j)) buf.(j)
           else buf.(j) <- Zynq.vread_word z ~priv (a + (4 * j))
         done
       else if k = 1 then Zynq.vwrite_words z ~priv a buf 0 n
       else Zynq.vread_words z ~priv a buf 0 n);
      0);
  Array.iter (note b) buf

let run_trace b pinned =
  guarded b (fun () ->
      Exec.run_pinned b.z ~priv:b.priv pinned;
      0)

let run_pin b i = run_trace b b.pins.(i)

let rec apply b op =
  let z = b.z in
  match op with
  | Run i ->
    (* f6 touches scratch pages that may currently be unmapped; the
       fault itself (with its charged walk reads) must be identical on
       both boards. *)
    run_trace b b.runs.(i)
  | Touch (k, off, len) ->
    let r base = { Exec.base = base + off; len } in
    let none = { Exec.base = code_base; len = 0 } in
    run_trace b
      (Exec.pin1
         { Exec.label = "touch";
           code = (if k = 2 then r code_base else none);
           reads = (if k = 0 then [ r data_base ] else []);
           writes = (if k = 1 then [ r data_base ] else []);
           base_cycles = 0 })
  | Word (k, target, off, v) ->
    let a = word_addr k target off in
    b.touched <- a :: b.touched;
    guarded b (fun () -> word_op b k a v)
  | Words (k, target, off, n) -> words_op b k target off n
  | Set_asid a -> Mmu.set_asid z.Zynq.mmu a
  | Set_dacr (d, a) -> Dacr.set (Mmu.dacr z.Zynq.mmu) d (dacr_of a)
  | Set_priv p -> b.priv <- p
  | Flush_asid a -> ignore (Tlb.flush_asid z.Zynq.tlb a)
  | Flush_all -> ignore (Tlb.flush_all z.Zynq.tlb)
  | Inval_d (off, len) ->
    ignore (Hierarchy.invalidate_dcache_range z.Zynq.hier (data_base + off) len)
  | Clean_d (off, len) ->
    ignore (Hierarchy.clean_dcache_range z.Zynq.hier (data_base + off) len)
  | Inval_i -> ignore (Cache.invalidate_all (Hierarchy.l1i z.Zynq.hier))
  | Pt_toggle (i, flush) ->
    (* Map the scratch page if absent, unmap it if present. Without the
       TLB flush a stale translation keeps working on both boards (as on
       hardware); with it, the bump of the page's TLB set version forces
       the fast path to revalidate and possibly fault. *)
    let virt = scratch_page i in
    let pt = Kmem.kernel_pt b.km in
    if not (Page_table.unmap_page pt ~virt) then
      Page_table.map_page pt ~virt ~phys:virt ~domain:Kmem.dom_kernel
        ~ap:Pte.Ap_priv ~global:true;
    if flush then
      Tlb.flush_page z.Zynq.tlb ~asid:(Mmu.asid z.Zynq.mmu)
        ~vpage:(virt lsr Addr.page_shift)
  | Pt_remap (i, p, flush) ->
    (* Point the scratch page at an alternate physical frame. With the
       TLB page flush this bumps only the page's *TLB* set version: the
       fast path must notice the physical base moved and not replay L1
       slots recorded for the old frame's lines. *)
    let virt = scratch_page i in
    let pt = Kmem.kernel_pt b.km in
    ignore (Page_table.unmap_page pt ~virt);
    Page_table.map_page pt ~virt ~phys:(scratch_frame p)
      ~domain:Kmem.dom_kernel ~ap:Pte.Ap_priv ~global:true;
    if flush then
      Tlb.flush_page z.Zynq.tlb ~asid:(Mmu.asid z.Zynq.mmu)
        ~vpage:(virt lsr Addr.page_shift)
  | Pinned (i, n) ->
    for _ = 1 to n do
      run_pin b i
    done
  | Pinned_around (i, m) ->
    run_pin b i;
    apply b
      (match m with
       | 0 -> Flush_all
       | 1 -> Flush_asid (Mmu.asid z.Zynq.mmu)
       | 2 -> Clean_d (0, 4096)
       | 3 -> Inval_d (0, 256)
       | _ -> Inval_i);
    run_pin b i

(* Uncharged: straight from physical memory, no cache or TLB effect. *)
let readback b =
  List.fold_left
    (fun acc va ->
       List.fold_left
         (fun acc pa -> ((acc * 31) + Phys_mem.read_word b.z.Zynq.mem pa)
                        land max_int)
         acc (phys_aliases va))
    0 b.touched

let fingerprint b =
  let z = b.z in
  let h = z.Zynq.hier in
  let level c =
    [ Cache.hits c; Cache.misses c; Cache.valid_lines c; Cache.dirty_lines c ]
  in
  (Clock.now z.Zynq.clock
   :: List.concat_map level [ Hierarchy.l1i h; Hierarchy.l1d h; Hierarchy.l2 h ])
  @ [ Tlb.hits z.Zynq.tlb; Tlb.misses z.Zynq.tlb; b.outcomes; readback b ]

(* Two fast-path boards also share their micro-TLB counters. *)
let fast_fingerprint b =
  let hits, misses, _, _ = Fastpath.stats b.z.Zynq.fast in
  fingerprint b @ [ hits; misses ]

let prop_equivalent ops =
  let bf = make_board ~fast:true () in
  let br = make_board ~fast:false () in
  let bs = make_board ~scalar_words:true ~fast:true () in
  let same what i op f r =
    if f <> r then
      QCheck.Test.fail_reportf "diverged after op %d (%s):@ %s@ %s@ %s" i
        (show_op op) what
        (String.concat "," (List.map string_of_int f))
        (String.concat "," (List.map string_of_int r))
  in
  List.iteri
    (fun i op ->
       apply bf op;
       apply br op;
       apply bs op;
       same "fast vs reference" i op (fingerprint bf) (fingerprint br);
       same "word runs vs scalar loop" i op (fast_fingerprint bf)
         (fast_fingerprint bs))
    ops;
  true

let test_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"fastpath == reference (random ops)"
       arb_ops prop_equivalent)

(* Determinized sanity check that the fast board actually takes the
   shortcuts (otherwise the property above would pass vacuously). *)
let test_shortcuts_taken () =
  let b = make_board ~fast:true () in
  let z = b.z in
  for _ = 1 to 50 do
    Exec.run_pinned z ~priv:true b.runs.(2)
  done;
  let _, _, warm_replays, warm_records = Fastpath.stats z.Zynq.fast in
  check Alcotest.bool "program compiled" true (warm_records > 0);
  check Alcotest.bool "program replayed warm" true (warm_replays > 0);
  (* f5's read and write ranges share a page: compiling it walks that
     page twice, the second translate hitting the micro-TLB. *)
  Exec.run_pinned z ~priv:true b.runs.(5);
  let mtlb_hits, _, _, _ = Fastpath.stats z.Zynq.fast in
  check Alcotest.bool "micro-TLB hit" true (mtlb_hits > 0);
  (* A word on a page the footprints already translated hits too. *)
  ignore (Zynq.vread_word z ~priv:true (data_base + 8));
  let mtlb_hits', _, _, _ = Fastpath.stats z.Zynq.fast in
  check Alcotest.int "word access hits the micro-TLB" (mtlb_hits + 1)
    mtlb_hits';
  (* Invalidate only f2's write range: the next visit walks that one
     run cold and still bulk-replays the code and read runs. *)
  apply b (Inval_d (0x1000, 128));
  Exec.run_pinned z ~priv:true b.runs.(2);
  check Alcotest.bool "partial-warm replay" true
    (Fastpath.partial_replays z.Zynq.fast > 0)

let check_same_fingerprints ~fast:bf ~reference:br ops =
  List.iteri
    (fun i op ->
       apply bf op;
       apply br op;
       check (Alcotest.list Alcotest.int)
         (Printf.sprintf "fingerprint after op %d (%s)" i (show_op op))
         (fingerprint br) (fingerprint bf))
    ops

(* Regression: remapping a virtual page to a *different* physical frame
   and flushing the TLB page bumps only the TLB epoch — the cache
   epochs (notably L1I, which page walks never touch) can stay
   unchanged. The replay tier must not reproduce hits recorded for the
   old frame's lines; it has to fall through to the self-verifying
   tiers and walk the new lines cold, exactly like the reference. *)
let test_remap_invalidates_replay () =
  check_same_fingerprints ~fast:(make_board ~fast:true ())
    ~reference:(make_board ~fast:false ())
    [ Pt_toggle (0, false); Pt_toggle (1, false) (* map scratch pages *);
      Run 6; Run 6 (* compile, then warm-replay the program *);
      Pt_remap (0, 2, true) (* move the frame; flush only the TLB page *);
      Run 6; Run 6 ]

(* The word-path analogue: a word read installs the scratch page in
   the micro-TLB; after the page moves to another frame (TLB page
   flushed) the next read must come from the new frame. *)
let test_remap_redirects_words () =
  let bf = make_board ~fast:true () and br = make_board ~fast:false () in
  let va = scratch_page 0 + 0x40 in
  List.iter
    (fun b ->
       Phys_mem.write_word b.z.Zynq.mem va 0x1111_1111;
       Phys_mem.write_word b.z.Zynq.mem (scratch_frame 2 + 0x40) 0x2222_2222)
    [ bf; br ];
  let read_both () =
    List.map (fun b -> Zynq.vread_word b.z ~priv:true va) [ bf; br ]
  in
  check_same_fingerprints ~fast:bf ~reference:br [ Pt_toggle (0, false) ];
  check (Alcotest.list Alcotest.int) "old frame" [ 0x1111_1111; 0x1111_1111 ]
    (read_both ());
  let hits () = let h, _, _, _ = Fastpath.stats bf.z.Zynq.fast in h in
  let before = hits () in
  check (Alcotest.list Alcotest.int) "same frame again"
    [ 0x1111_1111; 0x1111_1111 ] (read_both ());
  check Alcotest.int "second read hit the micro-TLB" (before + 1) (hits ());
  check (Alcotest.list Alcotest.int) "fingerprints before remap"
    (fingerprint br) (fingerprint bf);
  check_same_fingerprints ~fast:bf ~reference:br [ Pt_remap (0, 2, true) ];
  check (Alcotest.list Alcotest.int) "new frame after remap"
    [ 0x2222_2222; 0x2222_2222 ] (read_both ());
  check (Alcotest.list Alcotest.int) "fingerprints after remap"
    (fingerprint br) (fingerprint bf)

(* The warm replay must charge exactly the modelled warm cost. *)
let test_replay_cycles_exact () =
  let b = make_board ~fast:true () in
  let z = b.z in
  let run () =
    let t0 = Clock.now z.Zynq.clock in
    Exec.run_pinned z ~priv:true b.runs.(2);
    Clock.now z.Zynq.clock - t0
  in
  ignore (run ());
  let w1 = run () in
  let w2 = run () in
  check Alcotest.int "replayed run costs the warm cost" w1 w2;
  (* f2 all L1-resident: 16 code + 16 read + 4 write lines at one cycle
     each, 128 issued instructions, 25 base cycles. *)
  check Alcotest.int "matches the modelled warm cost"
    ((16 + 16 + 4) + (512 / 4) + 25) w2

(* A pinned handle keeps one compiled program per translation context
   in eight slots, evicting the least recently used. A
   list-based LRU of the same size, fed the same context sequence, must
   predict every compile ([warm_records]): a cycle through one context
   more than the slots hold compiles on every run, and a seeded random
   sequence over twelve contexts mixes hits with evictions. *)
let lru_compiles seq =
  let cache = ref [] and compiles = ref 0 in
  List.iter
    (fun c ->
       if List.mem c !cache then cache := c :: List.filter (( <> ) c) !cache
       else begin
         incr compiles;
         cache := c :: List.filteri (fun i _ -> i < 7) !cache
       end)
    seq;
  !compiles

let test_pin_lru_compiles () =
  let compiles asids =
    let b = make_board ~fast:true () in
    List.iter
      (fun asid ->
         Mmu.set_asid b.z.Zynq.mmu asid;
         Exec.run_pinned b.z ~priv:true b.runs.(2))
      asids;
    let _, _, _, warm_records = Fastpath.stats b.z.Zynq.fast in
    warm_records
  in
  let cycle = List.init 90 (fun i -> 2 + (i mod 9)) in
  check Alcotest.int "a 9-context cycle compiles every run" 90 (lru_compiles cycle);
  check Alcotest.int "9-context cycle" (lru_compiles cycle) (compiles cycle);
  let rng = Random.State.make [| 42 |] in
  let random = List.init 2000 (fun _ -> 2 + Random.State.int rng 12) in
  check Alcotest.int "random contexts" (lru_compiles random) (compiles random)

let suite =
  ( "fastpath",
    [ test_equivalence;
      Alcotest.test_case "shortcuts actually taken" `Quick
        test_shortcuts_taken;
      Alcotest.test_case "remap invalidates replay" `Quick
        test_remap_invalidates_replay;
      Alcotest.test_case "remap redirects word reads" `Quick
        test_remap_redirects_words;
      Alcotest.test_case "replay cycles exact" `Quick
        test_replay_cycles_exact;
      Alcotest.test_case "pinned programs evict least recently used" `Quick
        test_pin_lru_compiles ] )
