(** Hardware-task families of the evaluation (paper Fig 8).

    The paper's FFT cores (256–8192 points) and QAM
    modulators/demodulators (orders 4/16/64), a FIR filter family as a
    natural extension for the same communication domain, and a
    heterogeneous catalog of cores with deliberately diverse shapes:
    a stage-accurate streaming FFT (large bitstream, large footprint,
    DMA-overlapped execution), an LFSR scrambler (tiny bitstream and
    footprint, DMA-bound), a digest core (small footprint,
    compute-bound per byte) and a matrix multiplier (large bitstream,
    strongly compute-bound). *)

type t =
  | Fft of int   (** points: power of two in 256–8192 *)
  | Qam of int   (** constellation size: 4, 16 or 64 *)
  | Fir of int   (** filter taps: odd, 5–127 (coefficients are part of
                     the bitstream; cutoff/response come in at run time
                     through the PARAM register) *)
  | Fft_stream of int
                 (** streaming pipelined FFT, points: power of two in
                     256–8192. Radix-2 stages with delay-line fill and
                     beat-by-beat DMA overlap: latency is the pipeline
                     fill plus one fabric cycle per sample *)
  | Scramble of int
                 (** LFSR scrambler, degree 7–31. 128-bit datapath —
                     DMA-bound: the AXI port is the bottleneck *)
  | Digest of int
                 (** digest/hash core, 64 or 80 rounds per 64-byte
                     block — compute-bound with a small footprint *)
  | Matmul of int
                 (** n×n float32 matrix multiplier, n a power of two
                     in 8–64 — strongly compute-bound (n³ MACs over n²
                     data) *)

val validate : t -> unit
(** @raise Invalid_argument outside the supported parameter range. *)

val name : t -> string
(** e.g. ["FFT-1024"], ["QAM-16"], ["SFFT-4096"], ["MM-64"]. *)

val resource_units : t -> int
(** FPGA area demanded, in abstract resource units; a PRR can host a
    task only if its capacity is at least this (paper: only PRR1/2 are
    large enough for FFT). *)

val compute_cycles : t -> int -> int
(** [compute_cycles k n_items] is the PL-side processing latency in
    {e CPU} cycles for [n_items] input items (complex samples for FFT,
    symbols for QAM, real samples for FIR, bytes for scramble/digest,
    matrix elements for matmul), assuming a 150 MHz fabric clock. For
    {!Fft_stream} it is the whole job's latency bar burst setup (its
    DMA streams inside it): fill (points - 1 + 4·log2 points) plus one
    fabric cycle per sample. *)

val cpu_cycles : float -> int
(** Convert fabric cycles to CPU cycles, rounding to nearest. *)
