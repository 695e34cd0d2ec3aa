(** Kernel observability plane: metrics registry and cycle-attributed
    spans.

    One registry hangs off each simulated board (like the fault plane)
    and is shared by the kernel, the Hardware Task Manager, and the PL
    device models. It holds three kinds of instruments, all integer —
    no floats on the hot path:

    - {e monotonic counters} (events: hypercalls by name, PCAP
      transfers, recovery actions, …),
    - {e gauges} (levels: alive VMs, quarantined PRRs),
    - {e cycle histograms} with fixed log2 buckets.

    On top of these sit {e spans}: bracketed regions of simulated time
    (hypercall dispatch, world switch, HTM stages, recovery actions)
    that roll up into per-(component, key) cells — key is a PD id for
    CPU-side components, a PRR id for PL-side ones — so the harness
    can print a Table-III-style per-VM × per-component breakdown.
    While a span is open, registered {e meters} (cache and TLB
    hit/miss counters supplied by the platform) are snapshotted; at
    close the deltas are attributed to the span's cell, which is what
    ties memory-hierarchy traffic to the code path that caused it.

    The plane is {e zero-cost and bit-identical when disabled}: it
    never advances the simulated clock (readings are taken with
    [Clock.now] by the caller), and with [enabled = false] every
    operation returns immediately without allocating, so runs with the
    plane off are bit-identical to a build without it — and runs with
    it on are cycle-identical too, which the equivalence tests pin. *)

type t

val create : ?enabled:bool -> ?cpu:int -> unit -> t
(** A fresh registry (default [enabled:true]). Registries are
    per-board and never shared across domains. [cpu] (default 0) is
    the simulated pCPU id stamped on every breakdown cell the
    registry emits, so merged multi-pCPU reports stay unambiguous. *)

val cpu : t -> int

val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Zero every instrument and drop every cell (e.g. after warm-up).
    Registered meters and existing handles stay valid.
    @raise Invalid_argument if spans are open. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Intern a monotonic counter by name (same name ⇒ same counter). *)

val incr : counter -> unit

val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {2 Histograms} *)

type histogram

val log2_buckets : int
(** Number of fixed log2 buckets (40): bucket [i] counts values [v]
    with [2^(i-1) <= v < 2^i] (bucket 0 counts [v <= 0], the last
    bucket absorbs everything larger). *)

val bucket_of : int -> int
(** Bucket index for a value (total: every int maps to a bucket). *)

val histogram : t -> string -> histogram
(** Intern a cycle histogram by name. *)

val observe : histogram -> int -> unit
(** Record one value: bumps its bucket and the count/total/min/max
    aggregates. Integer arithmetic only. *)

(** {2 Meters}

    A meter is an external monotonic reading (cache misses, TLB
    misses) sampled at span open and close; the delta is attributed to
    the span's cell. Register all meters before the first span. *)

val register_meter : t -> string -> (unit -> int) -> unit

(** {2 Spans} *)

type span
(** A token for an open bracketed region. Spans nest; they must be
    closed in LIFO order. *)

val open_span : t -> component:string -> key:int -> at:Cycles.t -> span
(** Open a span for [component] attributed to [key] (a PD or PRR id)
    at simulated time [at]. When the registry is disabled this returns
    a shared null token without allocating. *)

val close_span : t -> span -> at:Cycles.t -> unit
(** Close the span: [at - open at] cycles and the meter deltas are
    attributed to the ([component], [key]) cell.
    @raise Invalid_argument if [span] is not the innermost open span
    (imbalance — a bug in the instrumented code). *)

val sample : t -> component:string -> key:int -> cycles:int -> unit
(** Attribute an already-measured duration to a cell directly — a
    degenerate open+close for event-driven paths (PCAP transfers, PRR
    job completions) whose start and end are not stack-shaped. Meter
    deltas are not attributed. *)

val open_spans : t -> int
(** Number of currently open spans (0 on a quiescent system — the
    span-balance invariant the tests check). *)

(** {2 Snapshots}

    Plain-data view of the whole registry, safe to move across
    domains and cheap to serialize. *)

type hist_data = {
  h_name : string;
  h_count : int;
  h_total : int;
  h_min : int option;  (** [None] iff [h_count = 0] — the internal
                           max_int/min_int fill sentinels never leak *)
  h_max : int option;
  h_buckets : (int * int) list;  (** nonzero (bucket index, count) *)
}

type cell = {
  c_component : string;
  c_key : int;
  c_cpu : int;  (** pCPU id of the registry that produced the cell *)
  c_calls : int;
  c_cycles : int;      (** total attributed cycles *)
  c_max_cycles : int;
  c_buckets : (int * int) list;  (** log2 histogram of span durations *)
  c_meters : (string * int) list;  (** summed meter deltas *)
}

type snapshot = {
  s_enabled : bool;
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * int) list;
  s_hists : hist_data list;
  s_cells : cell list;  (** sorted by (component, key) *)
  s_open_spans : int;
}

val snapshot : t -> snapshot
(** Zero-valued instruments are omitted (interning a name records
    nothing), so snapshots stay compact and a disabled registry's
    snapshot is structurally {!empty_snapshot}. Exception: on an
    {e enabled} registry a registered-but-never-observed histogram is
    kept, with a zero count and [None] min/max, so report consumers
    can see it exists. *)

val empty_snapshot : snapshot
(** What [snapshot] returns for a never-enabled registry. *)

(** {2 Percentiles}

    Tail extraction from the fixed log2 buckets: pick the bucket
    holding the nearest-rank observation and interpolate linearly
    inside it, clamped by the recorded min/max when known. The
    estimate therefore lands in the same bucket as the exact
    percentile of the raw observations, so the error is bounded by
    one bucket width. *)

val percentile : hist_data -> float -> float option
(** [percentile d 0.99] is the interpolated p99 of a snapshot
    histogram; [None] on an empty histogram. *)

val cell_percentile : cell -> float -> float option
(** Percentile of a cell's span-duration histogram (cycles), capped
    by its recorded max. [None] when the cell has no calls. *)

val snapshot_to_json : snapshot -> Json_out.t
(** The snapshot as one JSON object on one line ({!Json_out.Line}):
    [{"counters": {..}, "gauges": {..}, "histograms": [..],
    "cells": [..], "open_spans": n}]. *)
