(* Tests for the programmable-logic substrate: PRRs, PCAP, hwMMU,
   IP cores, the PRR controller, and the AXI cost models. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_task_kind_validate () =
  Task_kind.validate (Task_kind.Fft 256);
  Task_kind.validate (Task_kind.Qam 64);
  Alcotest.check_raises "fft too small"
    (Invalid_argument "Task_kind: FFT points must be a power of two in 256-8192")
    (fun () -> Task_kind.validate (Task_kind.Fft 128));
  Alcotest.check_raises "qam bad order"
    (Invalid_argument "Task_kind: QAM order must be 4, 16 or 64") (fun () ->
        Task_kind.validate (Task_kind.Qam 8))

(* Boundary sweep of the heterogeneous catalog's parameter ranges. *)
let test_new_kind_boundaries () =
  List.iter Task_kind.validate
    [ Task_kind.Fft_stream 256; Task_kind.Fft_stream 8192;
      Task_kind.Scramble 7; Task_kind.Scramble 31;
      Task_kind.Digest 64; Task_kind.Digest 80;
      Task_kind.Matmul 8; Task_kind.Matmul 64 ];
  let bad msg k =
    Alcotest.check_raises (Task_kind.name k) (Invalid_argument msg)
      (fun () -> Task_kind.validate k)
  in
  let sfft = "Task_kind: SFFT points must be a power of two in 256-8192" in
  bad sfft (Task_kind.Fft_stream 128);
  bad sfft (Task_kind.Fft_stream 16384);
  bad sfft (Task_kind.Fft_stream 300);
  let scr = "Task_kind: scrambler LFSR degree must be in 7-31" in
  bad scr (Task_kind.Scramble 6);
  bad scr (Task_kind.Scramble 32);
  let dig = "Task_kind: digest rounds must be 64 or 80" in
  bad dig (Task_kind.Digest 63);
  bad dig (Task_kind.Digest 72);
  let mm = "Task_kind: matmul order must be a power of two in 8-64" in
  bad mm (Task_kind.Matmul 4);
  bad mm (Task_kind.Matmul 128);
  bad mm (Task_kind.Matmul 12);
  check Alcotest.string "sfft name" "SFFT-1024"
    (Task_kind.name (Task_kind.Fft_stream 1024));
  check Alcotest.string "scrambler name" "SCR-23"
    (Task_kind.name (Task_kind.Scramble 23))

let test_new_bitstream_sizes () =
  let kb = 1024 in
  (* The catalog's footprint spread: the scrambler is the smallest
     core in the store, the 8K streaming FFT the largest. *)
  check ci "smallest core 71 KB" (71 * kb)
    (Bitstream.size_for (Task_kind.Scramble 7));
  check ci "largest core 670 KB" (670 * kb)
    (Bitstream.size_for (Task_kind.Fft_stream 8192));
  check ci "sfft-256" (320 * kb)
    (Bitstream.size_for (Task_kind.Fft_stream 256));
  check ci "digest-64" (214 * kb) (Bitstream.size_for (Task_kind.Digest 64));
  check ci "digest-80" (230 * kb) (Bitstream.size_for (Task_kind.Digest 80));
  check ci "matmul-64" (508 * kb) (Bitstream.size_for (Task_kind.Matmul 64));
  (* Monotone in the parameter within each family. *)
  let mono k1 k2 =
    check cb "size monotone" true
      (Bitstream.size_for k1 < Bitstream.size_for k2)
  in
  mono (Task_kind.Fft_stream 256) (Task_kind.Fft_stream 512);
  mono (Task_kind.Scramble 7) (Task_kind.Scramble 31);
  mono (Task_kind.Matmul 8) (Task_kind.Matmul 16);
  (* Only the big PRRs (1300 units) can host the streaming FFT. *)
  check cb "sfft-8192 needs a big region" true
    (Task_kind.resource_units (Task_kind.Fft_stream 8192) > 1200
     && Task_kind.resource_units (Task_kind.Fft_stream 8192) <= 1300);
  check cb "scrambler fits a small region" true
    (Task_kind.resource_units (Task_kind.Scramble 31) < 200)

let test_task_kind_resources () =
  check cb "fft bigger than qam" true
    (Task_kind.resource_units (Task_kind.Fft 256)
     > Task_kind.resource_units (Task_kind.Qam 64));
  check cb "fft grows with points" true
    (Task_kind.resource_units (Task_kind.Fft 8192)
     > Task_kind.resource_units (Task_kind.Fft 256))

let test_bitstream_sizes () =
  check ci "qam size" (80 * 1024) (Bitstream.size_for (Task_kind.Qam 16));
  check ci "fft-256 size" (250 * 1024) (Bitstream.size_for (Task_kind.Fft 256));
  check ci "fft-8192 size" (600 * 1024)
    (Bitstream.size_for (Task_kind.Fft 8192));
  let b = Bitstream.make ~id:3 ~kind:(Task_kind.Fft 512) ~store_addr:0x1000 in
  check ci "descriptor id" 3 b.Bitstream.id

let test_hw_mmu () =
  let h = Hw_mmu.create () in
  check cb "no window refuses" false (Hw_mmu.check h ~base:0 ~len:4);
  Hw_mmu.load_window h ~base:0x1000 ~size:0x1000;
  check cb "inside ok" true (Hw_mmu.check h ~base:0x1800 ~len:0x100);
  check cb "exact fit ok" true (Hw_mmu.check h ~base:0x1000 ~len:0x1000);
  check cb "overrun refused" false (Hw_mmu.check h ~base:0x1F00 ~len:0x200);
  check cb "below refused" false (Hw_mmu.check h ~base:0xF00 ~len:0x100);
  check ci "violations counted" 3 (Hw_mmu.violations h);
  Hw_mmu.clear_window h;
  check cb "cleared refuses" false (Hw_mmu.check h ~base:0x1800 ~len:4)

let test_prr_registers () =
  let p = Prr.make ~id:2 ~capacity:500 in
  check ci "regs page placement"
    (Address_map.prr_regs_base + (2 * Address_map.prr_regs_stride))
    p.Prr.regs_base;
  Prr.write_reg p Prr.Reg.len 123l;
  check (Alcotest.int32) "register file" 123l (Prr.read_reg p Prr.Reg.len);
  Prr.set_status_bit p 1 true;
  check (Alcotest.int32) "status bit set" 2l (Prr.read_reg p Prr.Reg.status);
  Prr.set_status_bit p 1 false;
  check (Alcotest.int32) "status bit cleared" 0l (Prr.read_reg p Prr.Reg.status);
  check cb "capacity check" true (Prr.can_host p (Task_kind.Qam 4));
  check cb "too big" false (Prr.can_host p (Task_kind.Fft 256))

let test_ip_core_fft_functional () =
  let mem = Phys_mem.create () in
  let n = 256 in
  let src = 0x10000 and dst = 0x20000 in
  let re = Array.init n (fun i -> sin (0.2 *. float_of_int i)) in
  Array.iteri
    (fun i r ->
       Phys_mem.write_f32 mem (src + (8 * i)) r;
       Phys_mem.write_f32 mem (src + (8 * i) + 4) 0.0)
    re;
  let job =
    { Ip_core.kind = Task_kind.Fft n; src; dst; len = n; param = 0 }
  in
  check ci "bytes in" (8 * n) (Ip_core.bytes_in job);
  check ci "items" n (Ip_core.items job);
  Ip_core.run mem job;
  let hw_re = Array.init n (fun i -> Phys_mem.read_f32 mem (dst + (8 * i))) in
  let sw_re = Array.map (fun x -> Int32.float_of_bits (Int32.bits_of_float x)) re in
  let sw_im = Array.make n 0.0 in
  Fft.transform sw_re sw_im;
  check cb "matches software FFT (f32 storage)" true
    (Fft.max_error hw_re sw_re < 1e-2)

let test_ip_core_qam_functional () =
  let mem = Phys_mem.create () in
  let bits = Array.init 24 (fun i -> (i / 3) land 1) in
  let src = 0x1000 and dst = 0x2000 in
  Array.iteri (fun i b -> Phys_mem.write_u8 mem (src + i) b) bits;
  Ip_core.run mem
    { Ip_core.kind = Task_kind.Qam 16; src; dst; len = 24; param = 0 };
  (* Demodulate what the core wrote. *)
  let nsym = 24 / 4 in
  let i_arr = Array.init nsym (fun k -> Phys_mem.read_f32 mem (dst + (8 * k))) in
  let q_arr =
    Array.init nsym (fun k -> Phys_mem.read_f32 mem (dst + (8 * k) + 4))
  in
  check cb "demodulates back" true
    (Qam.demodulate Qam.Qam16 ~i:i_arr ~q:q_arr = bits)

let test_ip_core_fir_functional () =
  let mem = Phys_mem.create () in
  let n = 256 in
  let src = 0x4000 and dst = 0x8000 in
  let x =
    Array.init n (fun i ->
        sin (2.0 *. Float.pi *. 0.02 *. float_of_int i)
        +. sin (2.0 *. Float.pi *. 0.45 *. float_of_int i))
  in
  Array.iteri (fun i v -> Phys_mem.write_f32 mem (src + (4 * i)) v) x;
  (* PARAM: lowpass, cutoff 0.125 (raw 32). *)
  Ip_core.run mem
    { Ip_core.kind = Task_kind.Fir 63; src; dst; len = n; param = 32 lsl 8 };
  let y = Array.init n (fun i -> Phys_mem.read_f32 mem (dst + (4 * i))) in
  let h = Fir.design ~taps:63 (Fir.Lowpass 0.125) in
  let x32 =
    Array.map (fun v -> Int32.float_of_bits (Int32.bits_of_float v)) x
  in
  let expect = Fir.apply h x32 in
  let err = ref 0.0 in
  Array.iteri (fun i v -> err := Float.max !err (Float.abs (v -. expect.(i)))) y;
  check cb "matches software FIR" true (!err < 1e-3)

let test_ip_core_validation () =
  let job =
    { Ip_core.kind = Task_kind.Fft 256; src = 0; dst = 0; len = 100;
      param = 0 }
  in
  check cb "bad length rejected" true (Result.is_error (Ip_core.validate job));
  let ok = { job with Ip_core.len = 512 } in
  check cb "multiple accepted" true (Result.is_ok (Ip_core.validate ok))

(* --- PCAP --- *)

let board () = Zynq.create ()

let test_pcap_transfer () =
  let z = board () in
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  let bit =
    Bitstream.make ~id:1 ~kind:(Task_kind.Fft 1024)
      ~store_addr:Address_map.bitstream_store_base
  in
  Gic.enable z.Zynq.gic Irq_id.devcfg;
  (match Pcap.launch z.Zynq.pcap bit prr with
   | `Started d ->
     check cb "latency scales with size" true
       (Cycles.to_ms d > 1.0 && Cycles.to_ms d < 10.0)
   | `Busy -> Alcotest.fail "should start");
  check cb "busy during transfer" true (Pcap.busy z.Zynq.pcap);
  check cb "prr reconfiguring" true (prr.Prr.state = Prr.Reconfiguring);
  (* Second launch refused while busy. *)
  (match Pcap.launch z.Zynq.pcap bit (Prr_controller.prr z.Zynq.prrc 1) with
   | `Busy -> ()
   | `Started _ -> Alcotest.fail "single channel must serialize");
  ignore (Event_queue.advance_until z.Zynq.queue (Cycles.of_ms 20.0));
  check cb "ready after download" true (prr.Prr.state = Prr.Ready);
  check cb "task loaded" true (prr.Prr.loaded = Some bit);
  check cb "completion irq" true (Gic.is_pending z.Zynq.gic Irq_id.devcfg);
  check ci "counted" 1 (Pcap.transfers z.Zynq.pcap)

let test_pcap_latency_ordering () =
  let big = Bitstream.make ~id:1 ~kind:(Task_kind.Fft 8192) ~store_addr:0x1000 in
  let small = Bitstream.make ~id:2 ~kind:(Task_kind.Qam 4) ~store_addr:0x2000 in
  check cb "bigger bitstream, longer download" true
    (Pcap.transfer_cycles big > Pcap.transfer_cycles small)

(* Regression: an aborted DMA fires DevCfg at d/2 — [`Started] must
   carry that cycle count, not the full transfer latency (callers use
   it for timeout/trace accounting). Fault choice is seed-driven, so
   sweep seeds until both failure modes have been exercised. *)
let test_pcap_abort_reports_real_completion () =
  let bit =
    Bitstream.make ~id:1 ~kind:(Task_kind.Fft 1024) ~store_addr:0x1000
  in
  let d = Pcap.transfer_cycles bit in
  let seen_abort = ref false and seen_corrupt = ref false in
  let seed = ref 0 in
  while (not (!seen_abort && !seen_corrupt)) && !seed < 64 do
    let z = Zynq.create ~fault_seed:!seed ~fault_rate:1.0 () in
    let prr = Prr_controller.prr z.Zynq.prrc 0 in
    (match Pcap.launch z.Zynq.pcap bit prr with
     | `Busy -> Alcotest.fail "should start"
     | `Started u ->
       check cb "duration is d (corrupt) or d/2 (abort)" true
         (u = d || u = max 1 (d / 2));
       if u < d then begin
         seen_abort := true;
         ignore (Event_queue.advance_until z.Zynq.queue (u - 1));
         check ci "no failure before the reported cycle" 0
           (Pcap.failures z.Zynq.pcap);
         ignore (Event_queue.advance_until z.Zynq.queue u);
         check ci "failed exactly at the reported cycle" 1
           (Pcap.failures z.Zynq.pcap);
         check cb "channel free again" false (Pcap.busy z.Zynq.pcap)
       end
       else seen_corrupt := true);
    incr seed
  done;
  check cb "abort case exercised" true !seen_abort;
  check cb "corrupt case exercised" true !seen_corrupt

(* --- streaming FFT timing model --- *)

(* The streaming FFT's stage recurrence, kept as the reference model.
   Per sample i and pipeline element s (0 = input DMA, 1..S = butterfly
   stages with a delay line of points/2^s samples plus a 4-cycle
   register pipe, S+1 = output DMA):

     enter[s][i]  = max(depart[s-1][i],          (data available)
                        enter[s][i-1] + II_s,    (initiation interval)
                        depart[s][i-cap_s])      (pipeline occupancy)
     done[s][i]   = enter[s][i] + L_s
     depart[s][i] = max(done[s][i], enter[s+1][i-F])  (FIFO room)

   in fabric cycles, from the first input beat until the last output
   beat has drained. *)
module Sfft_reference = struct
  let butterfly_regs = 4

  let rec ilog2 acc v = if v <= 1 then acc else ilog2 (acc + 1) (v / 2)

  type ring = { buf : int array; mutable hi : int }

  let ring cap = { buf = Array.make (max 1 cap) 0; hi = -1 }

  let ring_push r i v =
    assert (i = r.hi + 1);
    r.hi <- i;
    r.buf.(i mod Array.length r.buf) <- v

  let ring_get r i =
    if i < 0 || i > r.hi || i <= r.hi - Array.length r.buf then None
    else Some (r.buf.(i mod Array.length r.buf))

  let job_cycles ~fifo_depth ~points ~samples ~in_beat ~out_beat =
    if samples <= 0 then 0
    else begin
      let stages = ilog2 0 points in
      let n = stages + 2 in
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
          let e =
            List.fold_left max avail
              [ (match ring_get enter.(s) (i - 1) with
                 | Some v -> v + ii.(s)
                 | None -> 0);
                (match ring_get depart.(s) (i - cap.(s)) with
                 | Some v -> v
                 | None -> 0) ]
          in
          let d = e + lat.(s) in
          let d =
            if s < n - 1 then
              match ring_get enter.(s + 1) (i - fifo_depth) with
              | Some v -> max d v
              | None -> d
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
end

let test_stream_fft_model () =
  let j ?(fifo_depth = 8) ?(points = 256) ~samples ~out_beat () =
    Sfft_reference.job_cycles ~fifo_depth ~points ~samples ~in_beat:1
      ~out_beat
  in
  check cb "fill latency grows with points" true
    (j ~points:1024 ~samples:1 ~out_beat:1 ()
     > j ~points:256 ~samples:1 ~out_beat:1 ());
  (* One sample crosses every delay line and register pipe, then
     leaves in one output beat. *)
  check ci "fill latency closed form" (255 + (4 * 8) + 1)
    (j ~samples:1 ~out_beat:1 ());
  check ci "one transform is fill plus one sample/cycle"
    (256 + 255 + (4 * 8))
    (j ~samples:256 ~out_beat:1 ());
  (* One sample per fabric cycle once the pipe is full. *)
  let c1 = j ~samples:1024 ~out_beat:1 () in
  let c2 = j ~samples:2048 ~out_beat:1 () in
  check ci "steady state streams 1 sample/cycle" 1024 (c2 - c1);
  (* A slow drain (ACP write beat) backpressures the whole pipe: the
     job stretches to ~2 cycles/sample, which a lump-sum dma+compute
     model cannot show. *)
  let s1 = j ~samples:2048 ~out_beat:2 () in
  check cb "slow drain visible upstream" true (s1 > c2 + 1024);
  (* Deeper inter-stage FIFOs only ever help (they absorb transients;
     steady-state throughput is bound by the slowest element). *)
  let s2 = j ~fifo_depth:64 ~samples:2048 ~out_beat:2 () in
  check cb "deeper fifos never hurt" true (s2 <= s1);
  check ci "empty job costs nothing" 0 (j ~samples:0 ~out_beat:1 ())

(* The closed form [Task_kind.compute_cycles] prices a streaming FFT
   with is the recurrence at one beat per fabric cycle, over every
   point count the catalog accepts, job lengths that are whole
   transforms, and FIFO depths 1-64. *)
let test_stream_fft_oracle () =
  let reference ?(fifo_depth = 8) ~points samples =
    Sfft_reference.job_cycles ~fifo_depth ~points ~samples ~in_beat:1
      ~out_beat:1
  in
  List.iter
    (fun points ->
       List.iter
         (fun fifo_depth ->
            List.iter
              (fun k ->
                 let samples = k * points in
                 let want =
                   Task_kind.cpu_cycles
                     (float_of_int (reference ~fifo_depth ~points samples))
                 in
                 let got =
                   Task_kind.compute_cycles (Task_kind.Fft_stream points)
                     samples
                 in
                 if got <> want then
                   Alcotest.failf "points %d samples %d fifo %d: %d, \
                                   reference %d"
                     points samples fifo_depth got want)
              [ 1; 2; 3; 8; 16 ])
         [ 1; 8; 64 ])
    (List.init 6 (fun k -> 256 lsl k) (* 256 .. 8192 *))

(* --- PRR controller --- *)

let load_task z prr_id kind =
  let prr = Prr_controller.prr z.Zynq.prrc prr_id in
  let bit =
    Bitstream.make ~id:9 ~kind ~store_addr:Address_map.bitstream_store_base
  in
  (match Pcap.launch z.Zynq.pcap bit prr with
   | `Started _ -> ()
   | `Busy -> Alcotest.fail "pcap busy");
  ignore (Event_queue.advance_until z.Zynq.queue (Clock.now z.Zynq.clock + Cycles.of_ms 20.0));
  prr

let test_controller_decode () =
  let z = board () in
  let a = Address_map.prr_regs_base + Address_map.prr_regs_stride + 8 in
  (match Prr_controller.decode_addr z.Zynq.prrc a with
   | Some (prr, reg) ->
     check ci "prr id" 1 prr.Prr.id;
     check ci "reg index" 2 reg
   | None -> Alcotest.fail "expected decode");
  check cb "unaligned rejected" true
    (Prr_controller.decode_addr z.Zynq.prrc (a + 2) = None);
  check cb "beyond groups rejected" true
    (Prr_controller.decode_addr z.Zynq.prrc
       (Address_map.prr_regs_base + (100 * Address_map.prr_regs_stride))
     = None)

let write_reg z prr reg v =
  Prr_controller.mmio_write z.Zynq.prrc
    (prr.Prr.regs_base + (4 * reg)) (Int32.of_int v)

let read_reg z prr reg =
  Int32.to_int (Prr_controller.mmio_read z.Zynq.prrc (prr.Prr.regs_base + (4 * reg)))

let test_controller_job () =
  let z = board () in
  let prr = load_task z 2 (Task_kind.Qam 4) in
  let win = Address_map.guest_phys_base 0 in
  Hw_mmu.load_window prr.Prr.hw_mmu ~base:win ~size:65536;
  (* Input: 16 bits at offset 64. *)
  for i = 0 to 15 do
    Phys_mem.write_u8 z.Zynq.mem (win + 64 + i) (i land 1)
  done;
  write_reg z prr Prr.Reg.src_offset 64;
  write_reg z prr Prr.Reg.dst_offset 128;
  write_reg z prr Prr.Reg.len 16;
  write_reg z prr Prr.Reg.param 0;
  write_reg z prr Prr.Reg.ctrl 1;
  check cb "busy after start" true (prr.Prr.state = Prr.Busy);
  ignore (Event_queue.advance_until z.Zynq.queue (Clock.now z.Zynq.clock + Cycles.of_ms 1.0));
  check cb "done" true (prr.Prr.state = Prr.Ready);
  let status = read_reg z prr Prr.Reg.status in
  check ci "done bit" 2 (status land 2);
  check ci "read-to-clear" 0 (read_reg z prr Prr.Reg.status land 2);
  check ci "job counted" 1 (Prr_controller.jobs_completed z.Zynq.prrc);
  (* The QAM-4 symbols for bits 01: verify one sample is on the grid. *)
  let i0 = Phys_mem.read_f32 z.Zynq.mem (win + 128) in
  check cb "output written" true (Float.abs i0 > 0.1)

let test_controller_hwmmu_refusal () =
  let z = board () in
  let prr = load_task z 2 (Task_kind.Qam 4) in
  Hw_mmu.load_window prr.Prr.hw_mmu ~base:(Address_map.guest_phys_base 0)
    ~size:256;
  write_reg z prr Prr.Reg.src_offset 64;
  write_reg z prr Prr.Reg.dst_offset 128;
  write_reg z prr Prr.Reg.len 4096; (* far beyond the 256-byte window *)
  write_reg z prr Prr.Reg.ctrl 1;
  let status = read_reg z prr Prr.Reg.status in
  check cb "violation flagged" true (status land 4 <> 0);
  check cb "no job ran" true (Prr_controller.jobs_completed z.Zynq.prrc = 0);
  check cb "violations recorded" true (Hw_mmu.violations prr.Prr.hw_mmu > 0)

let test_controller_coherence_warning () =
  let z = board () in
  let prr = load_task z 2 (Task_kind.Qam 4) in
  let win = Address_map.guest_phys_base 0 in
  Hw_mmu.load_window prr.Prr.hw_mmu ~base:win ~size:65536;
  (* Dirty the input range in the CPU caches and skip the clean. *)
  ignore (Hierarchy.access z.Zynq.hier Hierarchy.Store (win + 64));
  write_reg z prr Prr.Reg.src_offset 64;
  write_reg z prr Prr.Reg.dst_offset 1024;
  write_reg z prr Prr.Reg.len 16;
  write_reg z prr Prr.Reg.ctrl 1;
  check ci "coherence warning counted" 1
    (Prr_controller.coherence_warnings z.Zynq.prrc);
  check cb "warning bit set" true (read_reg z prr Prr.Reg.status land 8 <> 0)

let test_controller_irq_allocation () =
  let z = board () in
  (match Prr_controller.allocate_irq z.Zynq.prrc ~prr_id:0 with
   | Some 0 -> ()
   | _ -> Alcotest.fail "first source expected");
  check (Alcotest.option ci) "owner recorded" (Some 0)
    (Prr_controller.irq_owner z.Zynq.prrc 0);
  (* Idempotent for the same PRR. *)
  check (Alcotest.option ci) "idempotent" (Some 0)
    (Prr_controller.allocate_irq z.Zynq.prrc ~prr_id:0);
  (match Prr_controller.allocate_irq z.Zynq.prrc ~prr_id:1 with
   | Some 1 -> ()
   | _ -> Alcotest.fail "second source expected");
  Prr_controller.release_irq z.Zynq.prrc ~prr_id:0;
  check (Alcotest.option ci) "released" None
    (Prr_controller.irq_owner z.Zynq.prrc 0)

let test_controller_irq_exhaustion () =
  let z =
    Zynq.create ~prr_capacities:(List.init 20 (fun _ -> 100)) ()
  in
  let allocated = ref 0 in
  for p = 0 to 19 do
    match Prr_controller.allocate_irq z.Zynq.prrc ~prr_id:p with
    | Some _ -> incr allocated
    | None -> ()
  done;
  check ci "only 16 PL sources exist" 16 !allocated

(* Back-to-back SFFT-1024 jobs on one PRR over the HP port: a repeated
   shape, a new length and the first shape again each cost two burst
   setups plus the reference recurrence's streaming time. *)
let test_controller_sfft_latency () =
  let z = board () in
  let prr = load_task z 0 (Task_kind.Fft_stream 1024) in
  Hw_mmu.load_window prr.Prr.hw_mmu ~base:(Address_map.guest_phys_base 0)
    ~size:65536;
  write_reg z prr Prr.Reg.src_offset 0;
  write_reg z prr Prr.Reg.dst_offset 16384;
  (* Runs one job of [len] samples and returns its latency. *)
  let job len =
    write_reg z prr Prr.Reg.len len;
    let before = prr.Prr.busy_cycles in
    write_reg z prr Prr.Reg.ctrl 1;
    ignore
      (Event_queue.advance_until z.Zynq.queue
         (Clock.now z.Zynq.clock + Cycles.of_ms 1.0));
    check cb "job finished" true (prr.Prr.state = Prr.Ready);
    prr.Prr.busy_cycles - before
  in
  let expected samples =
    (2 * Axi.burst_setup_cycles)
    + Task_kind.cpu_cycles
        (float_of_int
           (Sfft_reference.job_cycles ~fifo_depth:8 ~points:1024 ~samples
              ~in_beat:1 ~out_beat:1))
  in
  let first = job 1024 in
  check ci "first job is the recurrence's" (expected 1024) first;
  check ci "a repeated shape costs the same" (expected 1024) (job 1024);
  let double = job 2048 in
  check ci "a new length is the recurrence's" (expected 2048) double;
  check cb "two transforms take longer" true (double > first);
  check ci "the first shape again" (expected 1024) (job 1024);
  check ci "four jobs ran" 4 (Prr_controller.jobs_completed z.Zynq.prrc)

let test_axi_costs () =
  check cb "hp cost grows" true
    (Axi.hp_transfer_cycles 65536 > Axi.hp_transfer_cycles 1024);
  let clock = Clock.create () in
  let h = Hierarchy.create clock in
  let l2 = Hierarchy.l2 h in
  let base = 0x100000 in
  ignore (Axi.acp_transfer_cycles 4096 ~l2 base);
  check cb "acp allocates into L2" true (Cache.probe l2 base);
  check cb "acp covers whole payload" true (Cache.probe l2 (base + 4064))

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "pl",
    [ t "task kind validate" test_task_kind_validate;
      t "new kind boundaries" test_new_kind_boundaries;
      t "task kind resources" test_task_kind_resources;
      t "bitstream sizes" test_bitstream_sizes;
      t "new bitstream sizes" test_new_bitstream_sizes;
      t "hw mmu" test_hw_mmu;
      t "prr registers" test_prr_registers;
      t "ip core fft" test_ip_core_fft_functional;
      t "ip core qam" test_ip_core_qam_functional;
      t "ip core fir" test_ip_core_fir_functional;
      t "ip core validation" test_ip_core_validation;
      t "pcap transfer" test_pcap_transfer;
      t "pcap latency ordering" test_pcap_latency_ordering;
      t "pcap abort reports real completion"
        test_pcap_abort_reports_real_completion;
      t "stream fft model" test_stream_fft_model;
      t "stream fft matches the reference recurrence" test_stream_fft_oracle;
      t "controller decode" test_controller_decode;
      t "controller job" test_controller_job;
      t "controller hwmmu refusal" test_controller_hwmmu_refusal;
      t "controller coherence warning" test_controller_coherence_warning;
      t "controller irq allocation" test_controller_irq_allocation;
      t "controller irq exhaustion" test_controller_irq_exhaustion;
      t "controller sfft latency is the reference"
        test_controller_sfft_latency;
      t "axi costs" test_axi_costs ] )
