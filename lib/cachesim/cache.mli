(** Set-associative cache model (timing and coherence state only).

    Tracks tags, validity, dirtiness and LRU order per set. Data
    contents live in {!Mem.Phys_mem}; this model decides whether an
    access hits and what maintenance operations must write back, which
    is all the timing layer needs. Caches are physically indexed and
    physically tagged, as on the Cortex-A9 (paper §III-C), so entries
    survive address-space switches. *)

type config = {
  name : string;       (** for stats/debug output *)
  size_bytes : int;    (** total capacity *)
  ways : int;          (** associativity *)
  line_size : int;     (** bytes per line *)
}

type t

val create : config -> t
(** An empty cache. Its slot state (tag, age and dirty-stamp words) is
    held in two [Bytes] blocks, which the GC never scans, and a fresh
    cache is one memset of each block with no per-slot work: every
    word -1, an invalid tag. An empty slot's LRU age is never read
    (victim choice compares the ages of live ways only), so a fresh
    cache behaves exactly like one emptied by {!invalidate_all}.
    @raise Invalid_argument if geometry is not a power-of-two split. *)

val access : t -> Addr.t -> write:bool -> [ `Hit | `Miss ]
(** Look up the line containing a physical address; on miss the line is
    filled (LRU victim evicted), on hit LRU is refreshed. [write] marks
    the line dirty (write-back, write-allocate policy). *)

val access_word : t -> Addr.t -> write:bool -> int
(** {!access}, returning where the line now lives: its slot on a hit,
    [lnot slot] (a negative number) on a miss, the slot being the one
    the fill used. {!rehit} on that slot replays later hits on the
    same line without a set scan. *)

val rehit : t -> int -> write:bool -> n:int -> unit
(** [rehit t slot ~write ~n] is [n] hitting {!access} calls on the line
    held by [slot], exactly: each one ticks, counts a hit and sets the
    slot's age to the tick, and marks the line dirty when [write]. The
    slot must be live and hold the line, e.g. straight after
    {!access_word} returned it. Leaves {!epoch} alone, as hits do.
    With [n = 0] it counts nothing but restamps the slot's age with
    the current tick: the one way two live lines of a set come to
    share an age, which the tests use to exercise the victim
    tie-break. *)

val run_through :
  t -> t -> a:Addr.t -> n:int -> write:bool -> slots:int array ->
  next_slots:int array -> from:int -> int
(** [run_through l1 next ~a ~n ...] walks [n] consecutive lines from
    [a]: per line, exactly the transition of {!access} on [l1],
    followed on a miss by {!access} on [next] (write-allocate at both
    levels). Each next-level consult counts one hit or one miss on
    [next], so the caller prices the walk from [next]'s {!hits} and
    {!misses} before and after it. The slot that ends up holding each
    line is recorded into [slots.(from + k)], and the next-level slot
    each missing line resolves to into [next_slots.(from + k)] — so a
    cold walk doubles as a recording pass for the fast-path replay
    layers. Both arrays are also read back as self-verifying placement
    {e hints}: when the recorded slot still carries the line's live
    tag the hit is replayed there without a set scan; a stale or
    garbage entry merely falls back to the full scan, but every entry
    must be [-1] or in bounds for the respective cache. Returns the
    number of lines not found at their recorded [l1] slot — [0] proves
    the walk was pure [l1] hits (and so left {!epoch} untouched).
    This is the simulator's hottest loop — both levels are fused into
    one closure-free pass with all counters accumulated in locals, and
    it allocates nothing. *)

val replay_hits : t -> int array -> start:int -> stop:int -> write:bool -> unit
(** [replay_hits t idx ~start ~stop ~write] replays a recorded run of
    guaranteed hits: for each slot index in [idx.(start..stop-1)] it
    performs exactly the state transition of a hitting {!access} (tick,
    hit counter, LRU refresh, dirtying when [write]). Only sound while
    {!epoch} still equals the value observed when [idx] was recorded
    by {!run_through} — any fill or invalidation in between may have
    moved the lines. *)

val probe : t -> Addr.t -> bool
(** [probe t a] is true when the line holding [a] is resident; does not
    disturb LRU or fill — used by tests and by DMA coherence checks. *)

val dirty_in_range : t -> Addr.t -> int -> bool
(** True when any dirty line intersects [\[a, a+len)]. Used to detect
    CPU→FPGA coherence hazards when a guest launches DMA without the
    cache-clean hypercall. *)

val clean_range : t -> Addr.t -> int -> int
(** Write back (un-dirty) every dirty line in the range; lines stay
    resident. Returns the number of lines written back (each costs a
    memory write at the level above). *)

val invalidate_range : t -> Addr.t -> int -> int
(** Drop every line in the range, discarding dirtiness; returns the
    number of lines invalidated. *)

val invalidate_all : t -> int
(** Drop everything; returns the number of valid lines discarded.
    O(1): validity is generation-stamped, so the whole-cache drop is a
    generation bump checked lazily on slot access, not an array
    walk — with statistics (the returned count, later hits/misses,
    victim choice) identical to the eager walk. *)

val clean_all : t -> int
(** Write back every dirty line; returns how many were written back.
    O(1) via a dirtiness generation bump, like {!invalidate_all};
    lines stay resident. *)

val hits : t -> int
val misses : t -> int

val epoch : t -> int
(** Monotonic invalidation/placement generation. Bumped by every state
    change that can move or drop a resident line: a miss fill (the LRU
    victim is evicted), [invalidate_range], [invalidate_all],
    [clean_range] and [clean_all]. Hits only refresh LRU and leave the
    epoch alone, so "epoch unchanged" certifies that every line
    resident at the last observation is still resident in the same
    slot. The fast-path layers (Exec's warm-footprint memo) and
    observability tooling key on this; it also measures invalidation
    churn directly. *)

val lines : t -> int
(** Total number of lines (capacity / line size). *)

val line_size : t -> int

val sets : t -> int
(** Number of sets (lines / ways). [n] consecutive lines can never
    evict each other while [n <= sets] — the condition under which a
    freshly walked run's recorded slots are current at walk end. *)

val valid_lines : t -> int
(** Number of currently resident lines (maintained incrementally; this
    is what {!invalidate_all} returns). *)

val dirty_lines : t -> int
(** Number of currently dirty lines (what {!clean_all} returns). *)
