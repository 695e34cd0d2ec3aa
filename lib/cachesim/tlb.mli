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

val lookup : t -> asid:int -> vpage:int -> entry option
(** Hit refreshes LRU. A non-global entry only matches its own ASID. *)

type slot
(** Handle on the physical TLB slot currently holding a translation.
    Stays valid (same mapping, same slot) while {!epoch} is unchanged:
    only inserts and flushes move or drop entries. *)

val peek : t -> asid:int -> vpage:int -> slot
(** Like {!lookup} but completely effect-free: no tick, no hit/miss
    accounting, no LRU refresh, no allocation. Returns the slot holding
    the translation, or {!null_slot} itself (compare with [==]) on a
    miss. Used to snapshot residency for the fast-path layers. *)

val refresh : t -> slot -> unit
(** Replay a hit on a slot obtained from {!peek}: exactly the state
    transition of a hitting {!lookup} (tick, hit counter, LRU
    refresh). Only sound while {!epoch} still equals the value
    observed at {!peek} time. *)

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
    {!peek} is still resident in the same slot. Exec's micro-TLB and
    warm-footprint memo key on this; it also exposes TLB churn to
    observability layers. *)

val live_entries : t -> int
(** Number of currently resident translations (maintained
    incrementally; this is what {!flush_all} returns). *)
