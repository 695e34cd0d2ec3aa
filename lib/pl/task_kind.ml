type t =
  | Fft of int
  | Qam of int
  | Fir of int
  | Fft_stream of int
  | Scramble of int
  | Digest of int
  | Matmul of int

let rec ilog2 acc v = if v <= 1 then acc else ilog2 (acc + 1) (v / 2)

let validate = function
  | Fft n ->
    if n < 256 || n > 8192 || n land (n - 1) <> 0 then
      invalid_arg "Task_kind: FFT points must be a power of two in 256-8192"
  | Qam m ->
    if m <> 4 && m <> 16 && m <> 64 then
      invalid_arg "Task_kind: QAM order must be 4, 16 or 64"
  | Fir taps ->
    if taps < 5 || taps > 127 || taps land 1 = 0 then
      invalid_arg "Task_kind: FIR taps must be odd and in 5-127"
  | Fft_stream n ->
    if n < 256 || n > 8192 || n land (n - 1) <> 0 then
      invalid_arg "Task_kind: SFFT points must be a power of two in 256-8192"
  | Scramble deg ->
    if deg < 7 || deg > 31 then
      invalid_arg "Task_kind: scrambler LFSR degree must be in 7-31"
  | Digest rounds ->
    if rounds <> 64 && rounds <> 80 then
      invalid_arg "Task_kind: digest rounds must be 64 or 80"
  | Matmul n ->
    if n < 8 || n > 64 || n land (n - 1) <> 0 then
      invalid_arg "Task_kind: matmul order must be a power of two in 8-64"

let name = function
  | Fft n -> Printf.sprintf "FFT-%d" n
  | Qam m -> Printf.sprintf "QAM-%d" m
  | Fir taps -> Printf.sprintf "FIR-%d" taps
  | Fft_stream n -> Printf.sprintf "SFFT-%d" n
  | Scramble deg -> Printf.sprintf "SCR-%d" deg
  | Digest rounds -> Printf.sprintf "DIG-%d" rounds
  | Matmul n -> Printf.sprintf "MM-%d" n

let resource_units = function
  | Fft n ->
    (* Streaming FFT area grows with log2(points). *)
    400 + (60 * ilog2 0 n)
  | Qam _ -> 120
  | Fir taps -> 150 + (2 * taps) (* one MAC slice per pair of taps *)
  | Fft_stream n ->
    (* Pipelined stages plus inter-stage FIFO BRAM; only the large
       PRRs can host it (1272 units at 8192 points). *)
    440 + (64 * ilog2 0 n)
  | Scramble deg -> 60 + deg (* a shift register and an XOR tree *)
  | Digest rounds ->
    160 + (rounds / 4) (* sequential round function, little area *)
  | Matmul n -> 520 + (8 * n) (* MAC array + row/column buffers *)

(* Fabric runs at 150 MHz; express latency in 660 MHz CPU cycles. *)
let fabric_ratio = 660.0 /. 150.0

let cpu_cycles fabric = int_of_float (Float.round (fabric *. fabric_ratio))

let compute_cycles k n_items =
  match k with
  | Fft points ->
    (* Pipelined radix-2: ~(n/2)·log2 n butterflies, 4 butterflies/cycle,
       per block of [points]; round blocks up. *)
    let stages = ilog2 0 points in
    let blocks = (n_items + points - 1) / points in
    cpu_cycles (float_of_int (blocks * (points / 2) * stages) /. 4.0)
  | Qam _ ->
    (* One symbol per fabric cycle, fully pipelined. *)
    cpu_cycles (float_of_int n_items)
  | Fir taps ->
    (* Systolic MAC array: 4 taps per fabric cycle per sample. *)
    cpu_cycles (float_of_int (n_items * taps) /. 4.0)
  | Fft_stream points ->
    (* The stage recurrence at one beat per fabric cycle: by induction
       sample i enters stage s at i + sum_{k<s} L_k (L_k = points/2^k + 4,
       also its capacity), so occupancy only ties and FIFO room trails by
       the depth; the last of n drains at n + points - 1 + 4·log2 points. *)
    let stages = ilog2 0 points in
    cpu_cycles (float_of_int (n_items + points - 1 + (4 * stages)))
  | Scramble _ ->
    (* 128-bit datapath: 16 bytes scrambled per fabric cycle — the AXI
       port, not the core, is the bottleneck. *)
    cpu_cycles (float_of_int ((n_items + 15) / 16))
  | Digest rounds ->
    (* Sequential round function, 2 rounds per fabric cycle, per
       64-byte block. *)
    let blocks = (n_items + 63) / 64 in
    cpu_cycles (float_of_int (blocks * rounds) /. 2.0)
  | Matmul n ->
    (* n MACs per output element on a 16-MAC array; n_items counts
       input elements, n*n per block. *)
    let blocks = (n_items + (n * n) - 1) / (n * n) in
    cpu_cycles (float_of_int (blocks * n * n * n) /. 16.0)
