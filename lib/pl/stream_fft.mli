(** Stage-accurate timing for the streaming pipelined FFT.

    Models [Task_kind.Fft_stream] as a chain of log2(points) radix-2
    butterfly stages (delay line of points/2^s samples + a 4-cycle
    register pipe each) linked by bounded inter-stage FIFOs, fed and
    drained beat-by-beat by the AXI DMA channels. IP execution
    overlaps DMA: latency is fill + streaming + drain rather than the
    closed-form dma + compute lump sum, and a slow drain beat (ACP
    write-allocate) backpressures visibly through the FIFOs all the
    way to the input. Pure integer arithmetic — deterministic and
    fastpath-independent. *)

val fill_latency : int -> int
(** [fill_latency points]: fabric cycles before the first output
    emerges once fed at full rate — delay lines (points-1) plus the
    butterfly register pipes. *)

val job_cycles :
  ?fifo_depth:int ->
  points:int ->
  samples:int ->
  in_beat:int ->
  out_beat:int ->
  unit ->
  int
(** Total fabric cycles from the first input beat until the last
    output beat has drained, for [samples] complex samples streamed
    through a [points]-point pipeline. [in_beat]/[out_beat] are the
    fabric cycles between successive DMA beats on the read/write
    channels (1 = one sample per fabric cycle, the 64-bit HP port
    rate). AXI burst setup is not included — the caller charges it per
    direction. Allocates only the per-element rings, nothing per
    sample. *)
