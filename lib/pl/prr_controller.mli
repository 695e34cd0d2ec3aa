(** The PRR controller — the static logic of the fabric (paper Fig 4).

    Owns the PRRs, their register groups, the per-PRR hwMMU and the 16
    PL interrupt sources. Decodes MMIO traffic arriving over AXI_GP,
    runs DMA jobs over AXI_HP, and raises PL interrupts at job
    completion.

    A job starts when the client writes CTRL.start. The controller
    resolves SRC/DST offsets against the hwMMU window, refuses any
    range escaping it (STATUS.violation), flags a coherence warning if
    CPU caches still hold dirty data for the input range, and schedules
    completion after the DMA + fabric compute latency. A streaming-FFT
    job's fabric cycles are a pure function of its shape (points and
    samples); each controller keeps the last shape it ran, so the
    pipeline recurrence runs only when the shape changes. *)

type t

val create :
  ?faults:Fault_plane.t -> ?obs:Obs.t ->
  Phys_mem.t -> Event_queue.t -> Gic.t -> Hierarchy.t ->
  capacities:int list -> t
(** One PRR per capacity entry, ids 0..n-1, register pages at
    consecutive 4 KB steps from {!Address_map.prr_regs_base}.
    [faults] (default: disabled) may inject per-job faults: a hung
    core (stuck busy, no completion), an AXI beat error (STATUS bit 4,
    no data written) or a spurious hwMMU refusal (STATUS.violation on
    a legal job — the real hwMMU violation counter is untouched).
    [obs] (default: disabled) receives one ["prr_job"] sample per
    finished job, keyed by PRR id and weighted by the DMA + compute
    latency, plus job/reset counters. *)

val prr_count : t -> int

val prr : t -> int -> Prr.t
(** @raise Invalid_argument on a bad id. *)

val decode_addr : t -> Addr.t -> (Prr.t * int) option
(** Map a physical MMIO address to (region, register index). *)

val mmio_read : t -> Addr.t -> int32
(** AXI_GP read. Reading STATUS clears the done/violation/warning
    bits (read-to-clear). @raise Invalid_argument outside any group. *)

val mmio_write : t -> Addr.t -> int32 -> unit
(** AXI_GP write; writing CTRL with the start bit launches a job.
    Unknown/readonly registers are ignored (hardware-like). *)

val allocate_irq : t -> prr_id:int -> int option
(** Attach a free PL interrupt source (0–15) to a PRR; the source id
    appears in the PRR's IRQ register. [None] when all 16 are taken. *)

val release_irq : t -> prr_id:int -> unit
(** Detach the PRR's interrupt source, if any. *)

val irq_owner : t -> int -> int option
(** [irq_owner t i] is the PRR currently attached to PL source [i]. *)

val force_reset : t -> prr_id:int -> bool
(** Reset a hung region (graceful-degradation path): if the PRR is
    [Busy], abort the in-flight job (its completion event, if any, is
    invalidated), return the region to [Ready] (or [Empty] when no
    task is loaded), set STATUS bits 4 (fault) and 1 (done), raise the
    PRR's interrupt so a sleeping client wakes, and return [true].
    Returns [false] if the region was not busy. *)

val jobs_completed : t -> int
val coherence_warnings : t -> int
(** Jobs started while CPU caches held dirty lines of the input. *)
