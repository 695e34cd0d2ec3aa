(* Footprint execution. Two semantically identical paths exist:

   - the reference path ([touch_ref]/[run_ref]): translate once per
     page, charge the hierarchy once per line — the original scalar
     walk, kept as the oracle for the equivalence property test and
     used when the fast path is disabled (MININOVA_FASTPATH=0);

   - the fast path: each footprint is compiled once per translation
     context into a flat program of page-run descriptors
     ([Fastpath.prog]); replay revalidates each run independently
     against the TLB/cache epoch counters and bulk-replays the warm
     runs, walking only the cold ones through the fused two-level
     loop — which re-records their replay slots in passing. A per-CPU
     micro-TLB memoises page translations for the cold runs
     ([Zynq.translate_page], shared with the word accessors). Epoch
     counters guarantee every shortcut reproduces the exact state
     transitions, statistics and cycle counts of the reference path. *)

type range = Fastpath.range = { base : Addr.t; len : int }

type t = Fastpath.fp = {
  label : string;
  code : range;
  reads : range list;
  writes : range list;
  base_cycles : int;
}

let make ?(reads = []) ?(writes = []) ?(base_cycles = 0) ~label ~code_base
    ~code_bytes () =
  { label;
    code = { base = code_base; len = code_bytes };
    reads; writes; base_cycles }

let mmu_kind = function
  | Hierarchy.Ifetch -> Mmu.Exec
  | Hierarchy.Load -> Mmu.Read
  | Hierarchy.Store -> Mmu.Write

(* Reference walk: the original per-line loop, bit-for-bit. *)
let touch_ref zynq ~priv kind r =
  if r.len > 0 then begin
    let mmu_kind = mmu_kind kind in
    let first = Addr.line_base r.base in
    let last = Addr.line_base (r.base + r.len - 1) in
    (* Translate once per page, access once per line. *)
    let cur_page = ref (-1) in
    let cur_pbase = ref 0 in
    let a = ref first in
    while !a <= last do
      let page = !a lsr Addr.page_shift in
      if page <> !cur_page then begin
        let pa =
          Mmu.translate_exn zynq.Zynq.mmu mmu_kind ~priv (Addr.page_base !a)
        in
        cur_page := page;
        cur_pbase := Addr.page_base pa
      end;
      let pa = !cur_pbase lor (!a land (Addr.page_size - 1)) in
      ignore (Hierarchy.access zynq.Zynq.hier kind pa);
      a := !a + Addr.line_size
    done
  end

(* Fast walk: translate per page (micro-TLB accelerated), then charge
   the whole within-page run of lines with one hierarchy dispatch. *)
let touch_fast zynq ~priv ~asid ~ttbr ~dacr kind r =
  if r.len > 0 then begin
    let first = Addr.line_base r.base in
    let last = Addr.line_base (r.base + r.len - 1) in
    let hier = zynq.Zynq.hier in
    let mmu_kind = mmu_kind kind in
    let a = ref first in
    while !a <= last do
      let page_vbase = Addr.page_base !a in
      let pbase =
        Zynq.translate_page zynq mmu_kind ~priv ~asid ~ttbr ~dacr page_vbase
      in
      let page_last = page_vbase + Addr.page_size - Addr.line_size in
      let stop = if last < page_last then last else page_last in
      let n = ((stop - !a) / Addr.line_size) + 1 in
      let pa = pbase lor (!a land (Addr.page_size - 1)) in
      ignore (Hierarchy.access_line_run hier kind pa n);
      a := !a + (n * Addr.line_size)
    done
  end

let touch zynq ~priv kind r =
  if Fastpath.enabled zynq.Zynq.fast then
    let mmu = zynq.Zynq.mmu in
    touch_fast zynq ~priv ~asid:(Mmu.asid mmu) ~ttbr:(Mmu.ttbr mmu)
      ~dacr:(Dacr.to_word (Mmu.dacr mmu)) kind r
  else touch_ref zynq ~priv kind r

let lines_of r =
  if r.len <= 0 then 0
  else
    ((Addr.line_base (r.base + r.len - 1) - Addr.line_base r.base)
     / Addr.line_size)
    + 1

let issue_cycles t = t.code.len / 4

let data_lines t =
  List.fold_left (fun a r -> a + lines_of r) 0 t.reads
  + List.fold_left (fun a r -> a + lines_of r) 0 t.writes

let run_ref zynq ~priv t =
  let start = Clock.now zynq.Zynq.clock in
  touch_ref zynq ~priv Hierarchy.Ifetch t.code;
  List.iter (touch_ref zynq ~priv Hierarchy.Load) t.reads;
  List.iter (touch_ref zynq ~priv Hierarchy.Store) t.writes;
  Clock.advance zynq.Zynq.clock (t.base_cycles + issue_cycles t);
  Clock.now zynq.Zynq.clock - start

let seq_lines fps =
  Array.fold_left (fun a t -> a + lines_of t.code + data_lines t) 0 fps

(* Compile a footprint sequence into one flat program: one descriptor
   per maximal within-page run of consecutive lines, in exactly the
   order the reference walk visits them (per footprint: code, then
   reads, then writes). The dynamic replay record starts all-stale
   (-1 stamps); the first visit walks every run cold and records as it
   goes. *)
let compile_fps (fps : t array) =
  let total = seq_lines fps in
  if total > Fastpath.memo_lines_cap then None
  else begin
    let vbase = ref [] and off = ref [] and lns = ref [] and knd = ref []
    and frm = ref [] in
    let n_runs = ref 0 and pos = ref 0 in
    let add_range kind r =
      if r.len > 0 then begin
        let first = Addr.line_base r.base in
        let last = Addr.line_base (r.base + r.len - 1) in
        let a = ref first in
        while !a <= last do
          let page_vbase = Addr.page_base !a in
          let page_last = page_vbase + Addr.page_size - Addr.line_size in
          let stop = if last < page_last then last else page_last in
          let n = ((stop - !a) / Addr.line_size) + 1 in
          vbase := page_vbase :: !vbase;
          off := (!a - page_vbase) :: !off;
          lns := n :: !lns;
          knd := kind :: !knd;
          frm := !pos :: !frm;
          incr n_runs;
          pos := !pos + n;
          a := !a + (n * Addr.line_size)
        done
      end
    in
    Array.iter
      (fun t ->
         add_range 0 t.code;
         List.iter (add_range 1) t.reads;
         List.iter (add_range 2) t.writes)
      fps;
    let arr l = Array.of_list (List.rev !l) in
    let n = !n_runs in
    Some
      { Fastpath.n_runs = n;
        r_vbase = arr vbase;
        r_off = arr off;
        r_lines = arr lns;
        r_kind = arr knd;
        r_from = arr frm;
        total_lines = !pos;
        r_tlb_epoch = Array.make n (-1);
        r_tlb_slot = Array.make n Tlb.null_slot;
        r_pbase = Array.make n 0;
        r_cache_epoch = Array.make n (-1);
        slots = Array.make !pos 0;
        l2_slots = Array.make !pos (-1);
        warm_at = -1 }
  end

let compile (t : t) = compile_fps [| t |]

let kind_of = function
  | 0 -> Hierarchy.Ifetch
  | 1 -> Hierarchy.Load
  | _ -> Hierarchy.Store

(* Replay a compiled program, revalidating each run independently:

   - translation: a TLB-epoch stamp match proves no insert or flush
     has touched any slot since the run's slot was recorded, so the
     recorded translation is replayed ([Tlb.refresh] — the exact
     state transition of the hitting lookup it stands in for) and the
     cached physical base reused; otherwise the page goes back
     through the micro-TLB / MMU and the record is refreshed;

   - lines: a cache-epoch stamp match proves no fill or invalidation
     has moved anything, so the run's recorded slots are replayed as
     bulk hits; failing that, an effect-free tag verify re-certifies
     the (possibly restamped) slots; failing *that*, the run is
     walked cold through the fused two-level loop, which re-records
     the slots in passing.

   Every tier performs bit-identical state transitions, statistics
   and cycle charges to the scalar reference walk; the tiers differ
   only in host-side work per line.

   [te]/[ie]/[de] are the TLB, L1I and L1D epochs on entry. When the
   visit leaves every run stamped with them and none has moved, they
   become the program's whole-program warm record. Returns the number
   of runs walked cold. *)
let replay_checked zynq ~l1i ~l1d (p : Fastpath.prog) ~priv ~asid ~ttbr
    ~dacr ~te ~ie ~de =
  let tlb = zynq.Zynq.tlb in
  let hier = zynq.Zynq.hier in
  let lat = Hierarchy.latencies hier in
  let clock = zynq.Zynq.clock in
  let cold = ref 0 in
  (* Whether every run so far was left stamped with the entry epochs. *)
  let valid = ref true in
  p.Fastpath.warm_at <- -1;
  for r = 0 to p.Fastpath.n_runs - 1 do
    let ki = Array.unsafe_get p.Fastpath.r_kind r in
    let n = Array.unsafe_get p.Fastpath.r_lines r in
    let page_vbase = Array.unsafe_get p.Fastpath.r_vbase r in
    let pbase =
      if Array.unsafe_get p.Fastpath.r_tlb_epoch r = Tlb.epoch tlb then begin
        Tlb.refresh tlb (Array.unsafe_get p.Fastpath.r_tlb_slot r);
        Array.unsafe_get p.Fastpath.r_pbase r
      end
      else begin
        let pb =
          Zynq.translate_page zynq (mmu_kind (kind_of ki)) ~priv ~asid ~ttbr
            ~dacr page_vbase
        in
        (* The recorded L1 slots belong to the *physical* lines the run
           last walked. If the stale TLB stamp hid a remap (the page
           now translates to a different frame), the cache-epoch stamp
           is meaningless for the new lines — drop to the self-verifying
           tiers, which check residency against the current [pa]. *)
        if pb <> Array.unsafe_get p.Fastpath.r_pbase r then
          Array.unsafe_set p.Fastpath.r_cache_epoch r (-1);
        (* [translate_page] left the page's micro-TLB entry naming its
           TLB slot, or marked the entry empty when no slot holds the
           translation. *)
        let vpage = page_vbase lsr Addr.page_shift in
        let e = Fastpath.mtlb_entry zynq.Zynq.fast vpage in
        if e.Fastpath.m_vpage = vpage then begin
          Array.unsafe_set p.Fastpath.r_tlb_slot r e.Fastpath.m_slot;
          Array.unsafe_set p.Fastpath.r_pbase r pb;
          Array.unsafe_set p.Fastpath.r_tlb_epoch r (Tlb.epoch tlb)
        end
        else Array.unsafe_set p.Fastpath.r_tlb_epoch r (-1);
        pb
      end
    in
    let pa = pbase lor Array.unsafe_get p.Fastpath.r_off r in
    let cache = if ki = 0 then l1i else l1d in
    let write = ki = 2 in
    let from = Array.unsafe_get p.Fastpath.r_from r in
    let cep = Cache.epoch cache in
    if Array.unsafe_get p.Fastpath.r_cache_epoch r = cep then begin
      Cache.replay_hits cache p.Fastpath.slots ~start:from ~stop:(from + n)
        ~write;
      Clock.advance clock (n * lat.Hierarchy.l1_hit)
    end
    else begin
      (* Stale stamp: one hinted walk replaces the old verify pass +
         cold re-walk. Per line it first tries the recorded slot (a
         single self-verifying tag compare); only lines that actually
         moved pay the full set scan and, on a miss, the next level.
         The transitions are bit-identical to the scalar walk either
         way, and [moved] reports how many hints failed. *)
      let moved =
        Hierarchy.access_line_run_record hier (kind_of ki) pa n
          ~slots:p.Fastpath.slots ~next_slots:p.Fastpath.l2_slots ~from
      in
      if moved = 0 then
        (* Every line was still live in its recorded slot, so the walk
           was all hits and cannot have bumped the epoch: the stamp is
           good again. *)
        Array.unsafe_set p.Fastpath.r_cache_epoch r cep
      else begin
        incr cold;
        (* The post-walk stamp is only sound when the walk cannot have
           evicted its own earlier lines: consecutive lines land in
           distinct sets iff the run fits the set count. *)
        Array.unsafe_set p.Fastpath.r_cache_epoch r
          (if n <= Cache.sets cache then Cache.epoch cache else -1)
      end
    end;
    valid :=
      !valid
      && Array.unsafe_get p.Fastpath.r_tlb_epoch r = te
      && Array.unsafe_get p.Fastpath.r_cache_epoch r
         = if ki = 0 then ie else de
  done;
  (* Epochs only grow: all three unchanged means no run's stamp went
     stale after it was checked. *)
  if
    !valid && Tlb.epoch tlb = te && Cache.epoch l1i = ie
    && Cache.epoch l1d = de
  then p.Fastpath.warm_at <- te + ie + de;
  !cold

(* Whole-program warm replay. No insert, flush, fill or invalidation
   has moved the TLB, L1I or L1D epoch since a visit left every run's
   stamps valid, so every run would take its warm tier: refresh its
   TLB slot, replay its lines as hits in order. The hits are charged
   with one clock advance. *)
let replay_warm zynq ~l1i ~l1d (p : Fastpath.prog) =
  let tlb = zynq.Zynq.tlb in
  for r = 0 to p.Fastpath.n_runs - 1 do
    Tlb.refresh tlb (Array.unsafe_get p.Fastpath.r_tlb_slot r);
    let ki = Array.unsafe_get p.Fastpath.r_kind r in
    let from = Array.unsafe_get p.Fastpath.r_from r in
    Cache.replay_hits
      (if ki = 0 then l1i else l1d)
      p.Fastpath.slots ~start:from
      ~stop:(from + Array.unsafe_get p.Fastpath.r_lines r)
      ~write:(ki = 2)
  done;
  Clock.advance zynq.Zynq.clock
    (p.Fastpath.total_lines
     * (Hierarchy.latencies zynq.Zynq.hier).Hierarchy.l1_hit)

let replay_runs zynq fast (p : Fastpath.prog) ~priv ~asid ~ttbr ~dacr =
  let l1i = Hierarchy.l1i zynq.Zynq.hier in
  let l1d = Hierarchy.l1d zynq.Zynq.hier in
  let te = Tlb.epoch zynq.Zynq.tlb in
  let ie = Cache.epoch l1i and de = Cache.epoch l1d in
  if p.Fastpath.warm_at = te + ie + de then begin
    replay_warm zynq ~l1i ~l1d p;
    fast.Fastpath.warm_replays <- fast.Fastpath.warm_replays + 1
  end
  else begin
    let cold =
      replay_checked zynq ~l1i ~l1d p ~priv ~asid ~ttbr ~dacr ~te ~ie ~de
    in
    if cold = 0 then
      fast.Fastpath.warm_replays <- fast.Fastpath.warm_replays + 1
    else if cold < p.Fastpath.n_runs then
      fast.Fastpath.partial_replays <- fast.Fastpath.partial_replays + 1
  end

let run_prog zynq fast (p : Fastpath.prog) (t : t) ~priv ~asid ~ttbr ~dacr =
  let clock = zynq.Zynq.clock in
  let start = Clock.now clock in
  replay_runs zynq fast p ~priv ~asid ~ttbr ~dacr;
  Clock.advance clock (t.base_cycles + issue_cycles t);
  Clock.now clock - start

let run zynq ~priv t =
  let fast = zynq.Zynq.fast in
  if not (Fastpath.enabled fast) then run_ref zynq ~priv t
  else begin
    let mmu = zynq.Zynq.mmu in
    let asid = Mmu.asid mmu and ttbr = Mmu.ttbr mmu in
    let dacr = Dacr.to_word (Mmu.dacr mmu) in
    let key =
      { Fastpath.k_fp = t; k_asid = asid; k_ttbr = ttbr; k_dacr = dacr;
        k_priv = priv }
    in
    match Fastpath.find_prog fast key with
    | Some p -> run_prog zynq fast p t ~priv ~asid ~ttbr ~dacr
    | None -> (
        match compile t with
        | Some p ->
          Fastpath.store_prog fast key p;
          run_prog zynq fast p t ~priv ~asid ~ttbr ~dacr
        | None ->
          (* Too many lines to compile: straight fast walk. *)
          let start = Clock.now zynq.Zynq.clock in
          touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Ifetch t.code;
          List.iter
            (touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Load)
            t.reads;
          List.iter
            (touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Store)
            t.writes;
          Clock.advance zynq.Zynq.clock (t.base_cycles + issue_cycles t);
          Clock.now zynq.Zynq.clock - start)
  end

(* --- pinned control-path traces --- *)

let pin fps =
  let cycles =
    Array.fold_left (fun a t -> a + t.base_cycles + issue_cycles t) 0 fps
  in
  Fastpath.make_pinned fps ~cycles
    ~compilable:(seq_lines fps <= Fastpath.memo_lines_cap)

let pin1 t = pin [| t |]

(* MRU scan over the handle's context slots; a hit at depth > 0 is
   rotated to the front so the steady-state mix stays O(1). *)
let find_pin_prog (p : Fastpath.pinned) ~asid ~ttbr ~dacr ~priv =
  let es = p.Fastpath.pin_entries in
  let n = Array.length es in
  let rec scan i =
    if i >= n then None
    else begin
      let e = Array.unsafe_get es i in
      if
        e.Fastpath.e_asid = asid && e.e_ttbr = ttbr && e.e_dacr = dacr
        && e.e_priv = priv
      then begin
        if i > 0 then begin
          for j = i downto 1 do
            Array.unsafe_set es j (Array.unsafe_get es (j - 1))
          done;
          Array.unsafe_set es 0 e
        end;
        e.Fastpath.e_prog
      end
      else scan (i + 1)
    end
  in
  scan 0

(* Install into the LRU slot and rotate it to the front. *)
let install_pin_prog (p : Fastpath.pinned) ~asid ~ttbr ~dacr ~priv prog =
  let es = p.Fastpath.pin_entries in
  let n = Array.length es in
  let e = es.(n - 1) in
  e.Fastpath.e_asid <- asid;
  e.Fastpath.e_ttbr <- ttbr;
  e.Fastpath.e_dacr <- dacr;
  e.Fastpath.e_priv <- priv;
  e.Fastpath.e_prog <- Some prog;
  for j = n - 1 downto 1 do
    Array.unsafe_set es j (Array.unsafe_get es (j - 1))
  done;
  Array.unsafe_set es 0 e

(* Execute a pinned sequence. Disabled, it is exactly the sequence of
   reference walks the call sites used to issue; enabled, the whole
   sequence replays as one compiled program with the summed cycle
   charge applied at the end — the clock advance moves across the
   in-sequence accesses, which is unobservable (nothing reads the
   clock or runs events between the back-to-back footprints), while
   every TLB/cache state transition happens in reference order. *)
let run_pinned zynq ~priv (p : Fastpath.pinned) =
  let fast = zynq.Zynq.fast in
  if not (Fastpath.enabled fast) then begin
    let fps = p.Fastpath.pin_fps in
    for i = 0 to Array.length fps - 1 do
      ignore (run_ref zynq ~priv (Array.unsafe_get fps i))
    done
  end
  else begin
    let mmu = zynq.Zynq.mmu in
    let asid = Mmu.asid mmu and ttbr = Mmu.ttbr mmu in
    let dacr = Dacr.to_word (Mmu.dacr mmu) in
    match find_pin_prog p ~asid ~ttbr ~dacr ~priv with
    | Some prog ->
      replay_runs zynq fast prog ~priv ~asid ~ttbr ~dacr;
      Clock.advance zynq.Zynq.clock p.Fastpath.pin_cycles
    | None ->
      if p.Fastpath.pin_compilable then begin
        match compile_fps p.Fastpath.pin_fps with
        | Some prog ->
          install_pin_prog p ~asid ~ttbr ~dacr ~priv prog;
          fast.Fastpath.warm_records <- fast.Fastpath.warm_records + 1;
          replay_runs zynq fast prog ~priv ~asid ~ttbr ~dacr;
          Clock.advance zynq.Zynq.clock p.Fastpath.pin_cycles
        | None -> assert false (* pin_compilable checked the cap *)
      end
      else begin
        (* Over the compile cap: straight fast walks, summed charge. *)
        let fps = p.Fastpath.pin_fps in
        for i = 0 to Array.length fps - 1 do
          let t = Array.unsafe_get fps i in
          touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Ifetch t.code;
          List.iter
            (touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Load)
            t.reads;
          List.iter
            (touch_fast zynq ~priv ~asid ~ttbr ~dacr Hierarchy.Store)
            t.writes
        done;
        Clock.advance zynq.Zynq.clock p.Fastpath.pin_cycles
      end
  end

let estimate_warm_cycles t =
  let l = Hierarchy.default_latencies.Hierarchy.l1_hit in
  (l * (lines_of t.code + data_lines t)) + t.base_cycles + issue_cycles t
