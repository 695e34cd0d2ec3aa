(** Per-CPU exact fast-path state for {!Exec} and the {!Zynq} word
    accessors, and the pinned-trace handle that holds compiled
    programs.

    The per-CPU state is the micro-TLB (a direct-mapped memo over page
    translations, looked up by [Zynq.translate_page]). A pinned trace
    ({!pinned}) holds its compiled programs, one per translation
    context; there is no global program table. A program flattens a
    footprint sequence into page-run descriptors (page base,
    first-line offset, line count, access kind) plus a replay record:
    the TLB slot and physical base per run, and the L1 slot per line.
    Replay revalidates each run independently against the
    {!Tlb.set_version} of its page and the {!Cache.epoch} of its L1
    (or a hinted walk), so a partially warm trace bulk-replays its warm runs and
    walks only the cold ones, and a program whose global TLB, L1I and
    L1D epochs have not moved since a visit left all its runs valid skips the per-run
    checks — with every shortcut bit-identical, in simulated cycles
    and in every hit/miss statistic, to the scalar reference walk.

    Both memo layers earn their keep, measured by removing each in a
    scratch copy (alternating [benchmark/main.exe --child] pairs at
    seed 42, every golden unchanged). Without the micro-TLB, so that
    every word and every stale run goes through [Mmu.translate_exn],
    [ring-fleet-64] [cpu_norm_s] went from 0.795 to 0.910 s (the
    removal won 0 of 8 pairs) and [churn-chaos] from 0.78 to 0.83 s
    (3 of 8). Without the whole-program [warm_at] record,
    [trap-fleet-smp4] went from 0.429 to 0.479 s (0 of 6).

    One value of {!t} lives in each {!Zynq.t}; parallel sweep domains
    never share one. The types are concrete because {!Exec} is the hot
    path and drives them field-by-field; treat them as private to the
    platform layer. *)

type range = { base : Addr.t; len : int }

type fp = {
  label : string;
  code : range;
  reads : range list;
  writes : range list;
  base_cycles : int;
}
(** The footprint record; {!Exec.t} is an alias of this (it lives here
    so {!Zynq} can carry fast-path state without a dependency cycle). *)

type mentry = {
  mutable m_vpage : int;   (** -1 when the entry is empty *)
  mutable m_asid : int;
  mutable m_ttbr : int;
  mutable m_dacr : int;
  mutable m_priv : bool;
  mutable m_epoch : int;   (** {!Tlb.set_version} of the page at install *)
  mutable m_slot : Tlb.slot;
  mutable m_pbase : int;
}
(** Micro-TLB entry: memoised page translation plus the pinned
    translation context and TLB slot it came from; a hit replays the
    slot so TLB statistics and LRU stay exact. *)

type prog = {
  n_runs : int;
  r_vbase : int array;       (** page-aligned virtual base per run *)
  r_off : int array;         (** first-line byte offset within the page *)
  r_lines : int array;       (** consecutive lines in the run *)
  r_kind : int array;        (** 0 ifetch / 1 load / 2 store *)
  r_from : int array;        (** run's first line index into [slots] *)
  total_lines : int;
  r_tlb_epoch : int array;   (** {!Tlb.set_version} of the run's page
                                 when [r_tlb_slot] was recorded;
                                 -1 = never *)
  r_tlb_slot : Tlb.slot array;
  r_pbase : int array;       (** physical page base per run *)
  r_cache_epoch : int array; (** {!Cache.epoch} of the run's L1 when
                                 [slots] was last known current; -1 *)
  slots : int array;         (** recorded L1 slot per line *)
  l2_slots : int array;      (** recorded L2 slot per line (placement
                                 hint for cold walks); -1 = none *)
  mutable warm_at : int;     (** whole-program warm record: the sum of
                                 the {!Tlb.epoch} and the L1I and L1D
                                 {!Cache.epoch}s at which a visit last
                                 left every run's stamps valid; -1 =
                                 none *)
}
(** A compiled footprint program: static flattened access pattern plus
    the stamp-guarded dynamic replay record. The epochs only grow, so
    while their sum still equals [warm_at] none of them has moved and
    every per-run stamp check would pass: a replay skips them. *)

type pin_entry = {
  mutable e_asid : int;
  mutable e_ttbr : int;
  mutable e_dacr : int;
  mutable e_priv : bool;
  mutable e_prog : prog option;   (** [None] = empty slot *)
  mutable e_used : int;
      (** the handle's [pin_clock] at the entry's last hit or install *)
}

type pinned = {
  pin_fps : fp array;
  pin_cycles : int;        (** summed base + issue cycles of the sequence *)
  pin_entries : pin_entry array;
      (** fixed slots: a hit moves no entry; an install evicts the
          least recently used, the smallest [e_used] *)
  mutable pin_clock : int;  (** counts the handle's hits and installs *)
}
(** A pinned control-path trace: a fixed footprint sequence interned
    once (at boot or VM creation) plus a small LRU cache of compiled
    programs keyed by translation context. Built with {!Exec.pin},
    executed with {!Exec.run_pinned}. No explicit invalidation exists
    or is needed: the context fields key each program and the epoch
    stamps inside {!prog} revalidate every replay, so kill/recovery/
    DPR events invalidate stale traces exactly as in the reference
    walk. *)

val make_pinned : fp array -> cycles:int -> pinned

type t = {
  mtlb : mentry array;
  mutable enabled : bool;
  mutable mtlb_hits : int;
  mutable mtlb_misses : int;
  mutable warm_replays : int;
  mutable partial_replays : int;
  mutable warm_records : int;
}

val mtlb_entry : t -> int -> mentry
(** [mtlb_entry t vpage]: the micro-TLB entry [vpage] maps to (it
    holds [vpage] only if [m_vpage = vpage]). *)

val create : unit -> t
(** Fresh state; enabled unless the [MININOVA_FASTPATH] environment
    variable is set to [0]/[off]/[false]/[no]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Toggle at runtime (the equivalence test drives both paths). *)

val stats : t -> int * int * int * int
(** [(mtlb_hits, mtlb_misses, warm_replays, warm_records)]:
    micro-TLB hits/misses, fully-warm program replays, programs
    compiled — host-side observability only; never feeds back into the
    simulation. *)

val partial_replays : t -> int
(** Visits that mixed warm run replays with at least one cold walk. *)
