(* Per-CPU fast-path state for the footprint execution engine.

   Two exact (bit-identical) accelerations of [Exec.run] live here:

   - a direct-mapped micro-TLB memoising page translations, valid only
     while the translation context (TTBR/ASID/DACR/privilege) and the
     {!Tlb.epoch} are unchanged — every flush, ASID switch or
     page-table update moves the epoch and kills stale entries. The
     {!Zynq} word accessors translate through it too;

   - compiled footprint programs: each footprint is flattened once per
     translation context into an array of page-run descriptors (page
     base, first-line offset, line count, access kind) with a per-run
     replay record (TLB slot + physical base, L1 slot per line). A
     replay visit revalidates each run independently — TLB-epoch stamp
     for the translation, cache-epoch stamp or an effect-free
     tag-verify pass for the lines — so a footprint with one cold
     range replays its warm runs in bulk and walks only the cold ones,
     and every cold walk re-records the run's slots in passing. A
     visit that leaves every run valid records the epochs it saw; the
     next visit, finding none of them moved, skips the per-run checks.

   Both structures are per-[Zynq] world (one simulated CPU), so
   parallel sweeps on separate domains never share them. The types
   for footprints live here (re-exported by [Exec]) so [Zynq] can
   carry this state without a dependency cycle. *)

type range = { base : Addr.t; len : int }

type fp = {
  label : string;
  code : range;
  reads : range list;
  writes : range list;
  base_cycles : int;
}

(* Micro-TLB entry: a memoised (vpage -> physical page base) under a
   pinned translation context. [m_slot] is the hardware TLB slot that
   produced it, replayed on hit so TLB statistics and LRU stay
   bit-identical with the non-memoised path. *)
type mentry = {
  mutable m_vpage : int;   (* -1 when empty *)
  mutable m_asid : int;
  mutable m_ttbr : int;
  mutable m_dacr : int;
  mutable m_priv : bool;
  mutable m_epoch : int;   (* Tlb.epoch at install time *)
  mutable m_slot : Tlb.slot;
  mutable m_pbase : int;
}

let mtlb_size = 256
let mtlb_mask = mtlb_size - 1

(* Programs are keyed by the footprint value itself plus the
   translation context it runs under, so the same kernel stub executed
   on behalf of different guests keeps one program per guest. *)
type key = {
  k_fp : fp;
  k_asid : int;
  k_ttbr : int;
  k_dacr : int;
  k_priv : bool;
}

(* A compiled footprint program. The static half is the flattened
   access pattern: run [r] covers [r_lines.(r)] consecutive lines of
   kind [r_kind.(r)] starting [r_off.(r)] bytes into the page at
   [r_vbase.(r)], with its per-line slot record living at
   [slots.(r_from.(r) ..)]. The dynamic half is the replay record,
   guarded by the monotonic TLB/cache epoch stamps: a stamp of -1
   means "never valid". [warm_at] is the whole-program warm record:
   the sum of the TLB, L1I and L1D epochs at which a visit last left
   every run's own stamps valid (-1: none). The three epochs only
   grow, so the sum is unchanged exactly when all three are; while it
   holds, every per-run check would pass and a replay can skip them. *)
type prog = {
  n_runs : int;
  r_vbase : int array;
  r_off : int array;
  r_lines : int array;
  r_kind : int array;        (* 0 ifetch / 1 load / 2 store *)
  r_from : int array;
  total_lines : int;
  r_tlb_epoch : int array;
  r_tlb_slot : Tlb.slot array;
  r_pbase : int array;
  r_cache_epoch : int array;
  slots : int array;
  l2_slots : int array;      (* recorded L2 slot per line; -1 = none *)
  mutable warm_at : int;
}

(* The program table is the hottest lookup in the simulator (one find
   per [Exec.run]); a hand-rolled hash over the footprint's scalar
   fields avoids the polymorphic hash walking the label string and the
   range lists on every call. *)
module Key = struct
  type t = key

  let range_eq (a : range) (b : range) = a.base = b.base && a.len = b.len

  let rec ranges_eq a b =
    match a, b with
    | [], [] -> true
    | x :: a, y :: b -> range_eq x y && ranges_eq a b
    | _ -> false

  let equal a b =
    a.k_asid = b.k_asid && a.k_ttbr = b.k_ttbr && a.k_dacr = b.k_dacr
    && a.k_priv = b.k_priv
    && a.k_fp.code.base = b.k_fp.code.base
    && a.k_fp.code.len = b.k_fp.code.len
    && a.k_fp.base_cycles = b.k_fp.base_cycles
    && ranges_eq a.k_fp.reads b.k_fp.reads
    && ranges_eq a.k_fp.writes b.k_fp.writes
    && String.equal a.k_fp.label b.k_fp.label

  let mix h v = (h * 0x01000193) lxor v

  let mix_ranges h rs =
    List.fold_left (fun h r -> mix (mix h r.base) r.len) h rs

  let hash k =
    let h = mix (mix 0x811c9dc5 k.k_fp.code.base) k.k_fp.code.len in
    let h = mix h k.k_fp.base_cycles in
    let h = mix_ranges h k.k_fp.reads in
    let h = mix_ranges h k.k_fp.writes in
    let h = mix (mix (mix h k.k_asid) k.k_ttbr) k.k_dacr in
    let h = if k.k_priv then mix h 1 else h in
    h land max_int
end

module Memos = Hashtbl.Make (Key)

(* Pinned control-path traces. A [pinned] handle interns a fixed
   sequence of footprints (one kernel control path: e.g. trap entry +
   hypercall dispatch) once at boot, with a small per-handle MRU cache
   of compiled programs keyed by translation context. This removes the
   per-call footprint allocation, key hash and program-table lookup of
   the generic [Exec.run] path: the hot control paths reduce to an MRU
   scan plus an epoch-validated replay. Correctness needs no explicit
   invalidation hooks — the context fields key the program, and the
   per-run TLB/cache epoch stamps inside [prog] revalidate every
   replay, so kills, recoveries, DPR events and page-table updates are
   caught exactly as on the generic path. *)
type pin_entry = {
  mutable e_asid : int;
  mutable e_ttbr : int;
  mutable e_dacr : int;
  mutable e_priv : bool;
  mutable e_prog : prog option;   (* None = empty slot *)
}

type pinned = {
  pin_fps : fp array;
  pin_cycles : int;        (* summed base + issue cycles of the sequence *)
  pin_compilable : bool;   (* total lines within [memo_lines_cap] *)
  pin_entries : pin_entry array;  (* MRU order: index 0 most recent *)
}

(* Contexts alive at once = live VMs (bounded by save-area slots) plus
   the manager; 8 ways keeps every steady-state mix resident. *)
let pin_ways = 8

let make_pinned fps ~cycles ~compilable =
  { pin_fps = fps;
    pin_cycles = cycles;
    pin_compilable = compilable;
    pin_entries =
      Array.init pin_ways (fun _ ->
          { e_asid = -1; e_ttbr = -1; e_dacr = -1; e_priv = false;
            e_prog = None }) }

type t = {
  mtlb : mentry array;
  memos : prog Memos.t;
  mutable enabled : bool;
  (* Observability counters (host-side only; never affect the sim). *)
  mutable mtlb_hits : int;
  mutable mtlb_misses : int;
  mutable warm_replays : int;     (* visits with every run replayed warm *)
  mutable partial_replays : int;  (* visits mixing warm replays and walks *)
  mutable warm_records : int;     (* programs compiled *)
}

let memo_cap = 8192

(* Footprints above this many lines are not compiled: they are rare,
   already amortise their walk cost, and would make programs large. *)
let memo_lines_cap = 512

let create () =
  let enabled =
    match Sys.getenv_opt "MININOVA_FASTPATH" with
    | Some ("0" | "off" | "false" | "no") -> false
    | Some _ | None -> true
  in
  { mtlb =
      Array.init mtlb_size (fun _ ->
          { m_vpage = -1; m_asid = -1; m_ttbr = -1; m_dacr = -1;
            m_priv = false; m_epoch = -1; m_slot = Tlb.null_slot;
            m_pbase = 0 });
    memos = Memos.create 64;
    enabled;
    mtlb_hits = 0; mtlb_misses = 0; warm_replays = 0; partial_replays = 0;
    warm_records = 0 }

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

let store_prog t key prog =
  if Memos.length t.memos >= memo_cap then Memos.reset t.memos;
  Memos.replace t.memos key prog;
  t.warm_records <- t.warm_records + 1

let find_prog t key = Memos.find_opt t.memos key

let stats t =
  (t.mtlb_hits, t.mtlb_misses, t.warm_replays, t.warm_records)

let partial_replays t = t.partial_replays
