(* Per-CPU fast-path state for the footprint execution engine.

   Two exact (bit-identical) accelerations of the reference walk live
   here, both used by [Exec.run_pinned]:

   - a direct-mapped micro-TLB memoising page translations, valid only
     while the translation context (TTBR/ASID/DACR/privilege) matches
     and the {!Tlb.set_version} of the page is unchanged — an insert
     into the page's TLB set or a flush that drops one of its entries
     moves the version and kills stale entries, while changes to other
     sets leave them live. The {!Zynq} word accessors translate
     through it too;

   - pinned traces: a fixed footprint sequence, interned once by its
     call site, holding its compiled programs — one per translation
     context, in a small LRU cache on the handle. A program flattens
     the sequence into an array of page-run descriptors (page base,
     first-line offset, line count, access kind) with a per-run replay
     record (TLB slot + physical base, L1 slot per line). A replay
     visit revalidates each run independently — TLB set-version stamp
     for the translation, cache-epoch stamp or a hinted walk for the
     lines — so a trace with one cold range replays its
     warm runs in bulk and walks only the cold ones, and every cold
     walk re-records the run's slots in passing. A visit that leaves
     every run valid records the epochs it saw; the next visit,
     finding none of them moved, skips the per-run checks. There is
     no program table: a footprint that is not pinned is not compiled.

   The micro-TLB is per-[Zynq] world (one simulated CPU), so parallel
   sweeps on separate domains never share it. The types for
   footprints live here (re-exported by [Exec]) so [Zynq] can carry
   this state without a dependency cycle. *)

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
  mutable m_epoch : int;   (* Tlb.set_version of the page at install *)
  mutable m_slot : Tlb.slot;
  mutable m_pbase : int;
}

let mtlb_size = 256
let mtlb_mask = mtlb_size - 1

(* A compiled footprint program. The static half is the flattened
   access pattern: run [r] covers [r_lines.(r)] consecutive lines of
   kind [r_kind.(r)] starting [r_off.(r)] bytes into the page at
   [r_vbase.(r)], with its per-line slot record living at
   [slots.(r_from.(r) ..)]. The dynamic half is the replay record,
   guarded by monotonic stamps — the TLB set version of the run's
   page, the L1 epoch — where -1 means "never valid". [warm_at] is
   the whole-program warm record: the sum of the global TLB, L1I and
   L1D epochs at which a visit last left every run's own stamps valid
   (-1: none). The three epochs only grow, so the sum is unchanged
   exactly when all three are; while it holds, every per-run check
   would pass and a replay can skip them. *)
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

(* Pinned control-path traces. A [pinned] handle interns a fixed
   sequence of footprints (one kernel control path: e.g. trap entry +
   hypercall dispatch) once at boot, with a small per-handle LRU cache
   of compiled programs keyed by translation context: running one is
   a scan of the slots plus an epoch-validated replay. Correctness needs no
   explicit invalidation hooks — the context fields key the program,
   and the per-run TLB/cache epoch stamps inside [prog] revalidate
   every replay, so kills, recoveries, DPR events and page-table
   updates are caught exactly as by the reference walk. *)
type pin_entry = {
  mutable e_asid : int;
  mutable e_ttbr : int;
  mutable e_dacr : int;
  mutable e_priv : bool;
  mutable e_prog : prog option;   (* None = empty slot *)
  mutable e_used : int;           (* [pin_clock] at the last hit or install *)
}

type pinned = {
  pin_fps : fp array;
  pin_cycles : int;        (* summed base + issue cycles of the sequence *)
  pin_entries : pin_entry array;  (* fixed slots; LRU by [e_used] *)
  mutable pin_clock : int;
}

(* Contexts alive at once = live VMs (bounded by save-area slots) plus
   the manager. 8 ways hold a small fleet's mix; a larger one cycles
   through them and recompiles (ring-fleet-64 recompiles 20,203
   programs per instance at seed 42). A 256-entry per-ASID table
   removed those recompiles but raised that workload's peak RSS from
   28.7 to 32.0 MB, so the 8-way LRU stays. *)
let pin_ways = 8

let make_pinned fps ~cycles =
  { pin_fps = fps;
    pin_cycles = cycles;
    pin_entries =
      Array.init pin_ways (fun _ ->
          { e_asid = -1; e_ttbr = -1; e_dacr = -1; e_priv = false;
            e_prog = None; e_used = 0 });
    pin_clock = 0 }

type t = {
  mtlb : mentry array;
  mutable enabled : bool;
  (* Observability counters (host-side only; never affect the sim). *)
  mutable mtlb_hits : int;
  mutable mtlb_misses : int;
  mutable warm_replays : int;     (* visits with every run replayed warm *)
  mutable partial_replays : int;  (* visits mixing warm replays and walks *)
  mutable warm_records : int;     (* programs compiled *)
}

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
    enabled;
    mtlb_hits = 0; mtlb_misses = 0; warm_replays = 0; partial_replays = 0;
    warm_records = 0 }

let mtlb_entry t vpage = Array.unsafe_get t.mtlb (vpage land mtlb_mask)

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled

let stats t =
  (t.mtlb_hits, t.mtlb_misses, t.warm_replays, t.warm_records)

let partial_replays t = t.partial_replays
