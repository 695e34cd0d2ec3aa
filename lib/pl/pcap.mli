(** Processor Configuration Access Port.

    The single download channel for partial bitstreams (paper §IV-A):
    one transfer at a time, latency proportional to the .bit size at
    the effective PCAP throughput, completion signalled by the DevCfg
    interrupt. The Hardware Task Manager launches a transfer and
    returns to the caller {e without waiting} (Fig 7 stage 5/6), so
    this module is fully event-driven. *)

type t

val create : faults:Fault_plane.t -> obs:Obs.t -> Event_queue.t -> Gic.t -> t
(** An armed [faults] plane may corrupt or abort downloads: the
    transfer still completes (full or half latency), DevCfg still
    fires, but the PRR is left [Empty] with no task loaded and
    {!failures} is incremented.

    An enabled [obs] receives one ["pcap"] sample per finished
    transfer, keyed by PRR id and weighted by the transfer latency,
    plus [pcap.transfers]/[pcap.failures] counters. *)

val throughput_bytes_per_sec : int
(** Effective PCAP throughput: 145 MB/s. *)

val transfer_cycles : Bitstream.t -> Cycles.t
(** Download latency for one bitstream. *)

val launch : t -> Bitstream.t -> Prr.t -> [ `Started of Cycles.t | `Busy ]
(** Begin reconfiguring [prr] with [bitstream]. On success the PRR
    enters [Reconfiguring]; at completion it becomes [Ready] with the
    task loaded, its TASK_ID register updated, and {!Irq_id.devcfg}
    raised. Returns the cycle count until DevCfg actually fires: the
    full transfer latency normally, or {e half} of it when an armed
    fault plane aborts the DMA partway through — so callers can use it
    for timeout/trace accounting either way. [`Busy] when a transfer
    is already in flight. *)

val busy : t -> bool

val transfers : t -> int
(** Count of completed transfers (evaluation statistic). *)

val failures : t -> int
(** Count of injected transfer failures (corrupt/aborted downloads). *)
