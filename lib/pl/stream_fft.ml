(* Stage-accurate timing for the streaming pipelined FFT
   ([Task_kind.Fft_stream]).

   The core is a chain of log2(points) radix-2 butterfly stages. Stage
   s (1-based) owns a delay line of points/2^s samples plus a 4-cycle
   butterfly register pipe; stages are linked by bounded FIFOs.
   Samples stream in beat-by-beat from the AXI read channel and drain
   beat-by-beat on the write channel, so DMA and compute overlap: the
   job's latency is fill + streaming + drain, not dma + compute.

   The recurrence tracks, per sample i and per pipeline element s
   (element 0 = input DMA, 1..S = butterfly stages, S+1 = output DMA):

     enter[s][i]  = max(depart[s-1][i],          (data available)
                        enter[s][i-1] + II_s,    (initiation interval)
                        depart[s][i-cap_s])      (pipeline occupancy)
     done[s][i]   = enter[s][i] + L_s
     depart[s][i] = max(done[s][i],
                        enter[s+1][i-F])         (downstream FIFO room)

   The occupancy term bounds how many samples a stage holds (its
   register depth), and the FIFO term stalls a stage whose downstream
   queue is full — so a slow drain (e.g. the ACP write path) is
   visible upstream all the way to the input DMA, exactly the
   backpressure a lump-sum model cannot express. All arithmetic is in
   integer fabric cycles; conversion to CPU cycles is the caller's
   business ({!Task_kind.cpu_cycles}). *)

let default_fifo_depth = 8

let butterfly_regs = 4

let rec ilog2 acc v = if v <= 1 then acc else ilog2 (acc + 1) (v / 2)

(* Per-element ring buffer remembering the last [cap] values, indexed
   by sample number; reads outside the recorded window return the
   caller's default. *)
type ring = { buf : int array; mutable hi : int }

let ring cap = { buf = Array.make (max 1 cap) 0; hi = -1 }

let ring_push r i v =
  assert (i = r.hi + 1);
  r.hi <- i;
  r.buf.(i mod Array.length r.buf) <- v

let ring_get r i ~default =
  if i < 0 || i > r.hi || i <= r.hi - Array.length r.buf then default
  else r.buf.(i mod Array.length r.buf)

let fill_latency points =
  (* Delay lines sum to points-1 across stages, plus the register pipe. *)
  points - 1 + (butterfly_regs * ilog2 0 points)

let job_cycles ?(fifo_depth = default_fifo_depth) ~points ~samples ~in_beat
    ~out_beat () =
  if samples <= 0 then 0
  else begin
    let stages = ilog2 0 points in
    let n = stages + 2 in
    (* Element parameters: II, latency, register capacity. *)
    let ii = Array.make n 1 in
    let lat = Array.make n 0 in
    let cap = Array.make n 1 in
    ii.(0) <- max 1 in_beat;
    ii.(n - 1) <- max 1 out_beat;
    for s = 1 to stages do
      lat.(s) <- (points lsr s) + butterfly_regs;
      cap.(s) <- lat.(s)
    done;
    let enter = Array.init n (fun s -> ring (max fifo_depth cap.(s))) in
    let depart = Array.init n (fun s -> ring cap.(s)) in
    let finish = ref 0 in
    for i = 0 to samples - 1 do
      let prev_depart = ref 0 in
      for s = 0 to n - 1 do
        let avail = if s = 0 then 0 else !prev_depart in
        (* Every ring holds at least the previous sample. *)
        let issue =
          if i = 0 then 0 else ring_get enter.(s) (i - 1) ~default:0 + ii.(s)
        in
        let e =
          Int.max avail
            (Int.max issue (ring_get depart.(s) (i - cap.(s)) ~default:0))
        in
        let d = e + lat.(s) in
        let d =
          if s < n - 1 then
            Int.max d (ring_get enter.(s + 1) (i - fifo_depth) ~default:d)
          else d
        in
        ring_push enter.(s) i e;
        ring_push depart.(s) i d;
        prev_depart := d;
        if s = n - 1 then finish := d + ii.(s)
      done
    done;
    !finish
  end
