(** Seeded, deterministic fault-injection plane for the PL.

    A single fault plane hangs off the board and is consulted at each
    {e injection opportunity} — a PCAP launch, a PRR job start — by the
    device models. Each opportunity independently faults with
    probability [rate], drawn from the plane's own splitmix64 stream,
    so a fixed [seed] yields a bit-identical fault schedule regardless
    of host parallelism.

    The plane is {e zero-cost when disabled}: with [rate <= 0] (the
    default) {!draw} returns immediately without touching the RNG, the
    log, or the simulated clock, so fault-free runs are bit-identical
    to a build without the plane.

    The PL cannot depend on the kernel, so injections are recorded in
    a bounded local log which the kernel drains into [Ktrace]
    ({!drain}). *)

type fault =
  | Pcap_corrupt   (** bitstream CRC failure detected at end of transfer *)
  | Pcap_abort     (** DMA abort partway through the transfer *)
  | Ip_hang        (** IP core wedges: stuck busy, never completes *)
  | Dma_error      (** AXI beat error mid-job; no data written *)
  | Hwmmu_spurious (** spurious protection refusal of a legal job *)

val fault_name : fault -> string
val all_faults : fault list

type entry = {
  at : Cycles.t;  (** simulated time of the injection *)
  prr : int;      (** region the fault hit *)
  fault : fault;
}

type t

val create : ?seed:int -> ?rate:float -> unit -> t
(** A plane drawing from seed [seed] (default 0) with per-opportunity
    probability [rate] (default 0.0, i.e. disabled). *)

val arm : t -> seed:int -> rate:float -> unit
(** Re-seed and enable/disable in place (the board owns the plane). *)

val draw : t -> at:Cycles.t -> prr:int -> candidates:fault list -> fault option
(** One injection opportunity at simulated time [at] on region [prr].
    With probability [rate], picks one of [candidates] uniformly, logs
    it, bumps its counter and returns it; otherwise [None]. Returns
    [None] without drawing when the plane is disabled or [candidates]
    is empty. *)

val injected : t -> fault -> int
(** Injections of one kind since creation/{!arm}. *)

val total_injected : t -> int

val drain : t -> entry list
(** All logged injections in order, clearing the log. The log is
    bounded (overflow drops the oldest entries and counts them in
    {!log_dropped}); drain it at least every few thousand injections —
    the kernel does so on its periodic tick. *)

val log_dropped : t -> int
