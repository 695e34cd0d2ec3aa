(** Cortex-A9 cache hierarchy: split 32 KB L1 I/D, unified 512 KB L2,
    DDR behind it.

    Every CPU-side physical access is charged here: the clock bound at
    creation advances by the access latency. Maintenance operations
    (clean/invalidate, used by the paper's cache hypercalls) are charged
    per line touched. *)

type latencies = {
  l1_hit : int;      (** cycles for an L1 hit *)
  l2_hit : int;      (** additional cycles when L1 misses but L2 hits *)
  dram : int;        (** additional cycles when L2 also misses *)
  writeback : int;   (** cycles per dirty line written back *)
  maintenance_per_line : int; (** cycles per line for clean/invalidate ops *)
}

val latencies : latencies
(** The latencies every access is charged: 660 MHz Cortex-A9 +
    PL310-class numbers, L1 hit 1, L2 hit +25, DRAM +120. *)

type kind = Ifetch | Load | Store

type t

val create : Clock.t -> t
(** Build the A9 hierarchy (32 KB 4-way L1I, 32 KB 4-way L1D, 512 KB
    8-way unified L2, 32 B lines) bound to [clock]. *)

val create_custom :
  l1i:Cache.config -> l1d:Cache.config -> l2:Cache.config -> Clock.t -> t
(** Same, with explicit geometries (for sensitivity experiments). *)

val access : t -> kind -> Addr.t -> int
(** Charge one access to the physical address; advances the clock and
    returns the cost in cycles. *)

val access_words : t -> kind -> Addr.t -> int -> int
(** [access_words t kind a n] charges [n] word accesses at [a, a + 4,
    …] — bit-identical in cache state, statistics, {!Cache.epoch} and
    total cycles to [n] scalar {!access} calls in the same order. The
    first word in each line is a full {!access}; the line's other
    words are repeat L1 hits ({!Cache.rehit}), which never touch the
    L2. The clock advances once, by the returned total. *)

val access_line_run_record :
  t -> kind -> Addr.t -> int ->
  slots:int array -> next_slots:int array -> from:int -> int
(** [access_line_run_record t kind a n ~slots ~next_slots ~from]
    charges [n] line-sized accesses at [a, a + line_size, …] —
    bit-identical in cache state, hit/miss statistics and total cycles
    to [n] scalar {!access} calls in the same order, but with a single
    dispatch and a single clock advance. It records the L1 slot that
    ends up holding line [k] into [slots.(from + k)] and the L2 slot
    each missing line resolves to into [next_slots.(from + k)] — a
    cold walk thereby refreshes a compiled footprint program's
    replay record at no extra cost, and the recorded slots at both
    levels serve as self-verifying placement hints on the next walk
    (see {!Cache.run_through}). The caller must size both arrays to
    at least [from + n]; entries must be [-1] or in-bounds slots for
    the respective cache. The cost is charged to the clock; the
    return value is the number of lines whose recorded L1 slot no
    longer held them ([0] proves the walk replayed as pure L1
    hits). *)

val access_uncached : t -> int
(** Charge a device (MMIO) access: bypasses the caches, costs a fixed
    bus round-trip; advances the clock and returns the cost. *)

val clean_dcache_range : t -> Addr.t -> int -> int
(** Clean (write back) the range in L1D and L2; advances the clock by
    the maintenance cost and returns it. *)

val invalidate_dcache_range : t -> Addr.t -> int -> int
val clean_invalidate_all : t -> int
(** Full clean+invalidate of both cache levels (expensive). *)

val dirty_in_range : t -> Addr.t -> int -> bool
(** CPU-side dirty data overlapping a range (DMA coherence check). *)

val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t

type counts = {
  l1i_hits : int; l1i_misses : int;
  l1d_hits : int; l1d_misses : int;
  l2_hits : int; l2_misses : int;
}

val counts : t -> counts
(** All six hit/miss statistics in one read — what the observability
    meters and the equivalence tests fingerprint. *)
