(** ASID-tagged translation lookaside buffer.

    Models the Cortex-A9 main TLB: set-associative, tagged with an
    8-bit ASID so that VM switches need no flush (paper §III-C), with
    global entries (kernel mappings) that match under any ASID. The
    stored payload is the raw descriptor word the MMU produced, so this
    module needs no knowledge of page-table formats. *)

type entry = {
  ppage : int;   (** physical page number *)
  word : int;    (** opaque descriptor word (permissions, domain) *)
  global : bool; (** matches regardless of ASID *)
}

type config = { entries : int; ways : int }

type t

val create : config -> t
(** @raise Invalid_argument on non power-of-two geometry. *)

val cortex_a9 : config
(** 128 entries, 2-way — the A9 main TLB. *)

type slot
(** Handle on the physical TLB slot currently holding a translation.
    Stays valid (same mapping, same slot) while the {!set_version} of
    its page is unchanged: only inserts and flushes move or drop
    entries, and each touches the version of the sets it changes. *)

val probe : t -> asid:int -> vpage:int -> slot
(** Look a translation up: tick, hit/miss accounting and an LRU
    refresh on a hit. A non-global entry only matches its own ASID.
    Returns the hitting slot, or {!null_slot} itself on a miss.
    Allocates nothing. *)

val entry : slot -> entry
(** The translation a slot holds. *)

val peek : t -> asid:int -> vpage:int -> slot
(** Like {!probe} but completely effect-free: no tick, no hit/miss
    accounting, no LRU refresh, no allocation. Returns the slot holding
    the translation, or {!null_slot} itself (compare with [==]) on a
    miss. Used to snapshot residency for the fast-path layers. *)

val refresh : t -> slot -> unit
(** Replay a hit on a slot obtained from {!peek}: exactly the state
    transition of a hitting {!probe} (tick, hit counter, LRU
    refresh). Only sound while {!set_version} of the page still equals
    the value observed at {!peek} time. *)

val refresh_n : t -> slot -> int -> unit
(** [refresh_n t s n] is [n] calls to [refresh t s] in one step. *)

val null_slot : slot
(** An always-invalid placeholder slot: {!peek}'s miss result, and the
    filler of pre-allocated memo tables. {!refresh} on it under a
    stale-epoch guard is harmless, but it never matches any lookup. *)

val insert : t -> asid:int -> vpage:int -> entry -> unit
(** Install a translation (evicting LRU in the set if needed). *)

val flush_all : t -> int
(** Invalidate everything (including globals); returns entries
    dropped. O(1): liveness is generation-stamped per slot, so the
    full flush is a generation bump checked lazily on the next match,
    with hit/miss statistics and LRU behaviour identical to the eager
    array walk it replaces. *)

val flush_asid : t -> int -> int
(** Invalidate all non-global entries of one ASID. *)

val flush_page : t -> asid:int -> vpage:int -> unit
(** Invalidate one translation (also drops a matching global entry). *)

val hits : t -> int
val misses : t -> int

val epoch : t -> int
(** Monotonic invalidation/placement generation: bumped by every
    {!insert} (which may evict an LRU victim) and by every [flush_*]
    that actually drops at least one entry. Lookups never bump it, so
    "epoch unchanged" certifies that every translation observed with
    {!peek} is still resident in the same slot. Exec's whole-program
    warm record keys on this; per-page memos key on {!set_version}. *)

val set_version : t -> int -> int
(** [set_version t vpage]: the {!epoch} value at the last change to
    the set [vpage] maps to — an {!insert} into it, a [flush_*] that
    dropped one of its entries, or any non-empty {!flush_all}. A
    lookup's result depends only on its own set, so "version
    unchanged" certifies that {!peek} at [vpage] (any ASID) still
    returns what it returned then, in the same slot, however the
    other sets moved. The micro-TLB and the pinned traces' per-run
    records key on this. *)

val live_entries : t -> int
(** Number of currently resident translations (maintained
    incrementally; this is what {!flush_all} returns). *)
