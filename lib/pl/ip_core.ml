type job = {
  kind : Task_kind.t;
  src : Addr.t;
  dst : Addr.t;
  len : int;
  param : int;
}

let demod j = j.param land 1 = 1

let bits_per_symbol m = Qam.bits_per_symbol (Qam.order_of_int m)

(* FIR PARAM register: bit0 = highpass, bits 8..15 = cutoff * 256. *)
let fir_response j =
  let fc =
    let raw = (j.param lsr 8) land 0xff in
    let raw = if raw = 0 then 64 else raw in
    float_of_int raw /. 256.0
  in
  let fc = Float.min 0.499 (Float.max 0.004 fc) in
  if j.param land 1 = 1 then Fir.Highpass fc else Fir.Lowpass fc

let bytes_in j =
  match j.kind with
  | Task_kind.Fft _ | Task_kind.Fft_stream _ -> j.len * 8
  | Task_kind.Fir _ -> j.len * 4
  | Task_kind.Qam m ->
    if demod j then j.len / bits_per_symbol m * 8 else j.len
  | Task_kind.Scramble _ | Task_kind.Digest _ -> j.len
  | Task_kind.Matmul _ -> j.len * 4

let bytes_out j =
  match j.kind with
  | Task_kind.Fft _ | Task_kind.Fft_stream _ -> j.len * 8
  | Task_kind.Fir _ -> j.len * 4
  | Task_kind.Qam m ->
    if demod j then j.len else j.len / bits_per_symbol m * 8
  | Task_kind.Scramble _ -> j.len
  | Task_kind.Digest _ -> 32
  | Task_kind.Matmul _ -> j.len * 4

let items j =
  match j.kind with
  | Task_kind.Fft _ | Task_kind.Fft_stream _ | Task_kind.Fir _
  | Task_kind.Scramble _ | Task_kind.Digest _ | Task_kind.Matmul _ ->
    j.len
  | Task_kind.Qam m -> j.len / bits_per_symbol m

let validate j =
  match j.kind with
  | Task_kind.Fft points | Task_kind.Fft_stream points ->
    if j.len <= 0 || j.len mod points <> 0 then
      Error
        (Printf.sprintf "FFT job length %d not a positive multiple of %d"
           j.len points)
    else Ok ()
  | Task_kind.Qam m ->
    if j.len <= 0 || j.len mod bits_per_symbol m <> 0 then
      Error
        (Printf.sprintf "QAM job length %d not a positive multiple of %d bits"
           j.len (bits_per_symbol m))
    else Ok ()
  | Task_kind.Fir _ ->
    if j.len <= 0 then Error "FIR job length must be positive" else Ok ()
  | Task_kind.Scramble _ ->
    if j.len <= 0 then Error "scramble job length must be positive"
    else Ok ()
  | Task_kind.Digest _ ->
    if j.len <= 0 || j.len mod 64 <> 0 then
      Error
        (Printf.sprintf "digest job length %d not a positive multiple of 64"
           j.len)
    else Ok ()
  | Task_kind.Matmul n ->
    if j.len <= 0 || j.len mod (n * n) <> 0 then
      Error
        (Printf.sprintf
           "matmul job length %d not a positive multiple of %d" j.len (n * n))
    else Ok ()

(* Complex samples are interleaved float32 (re, im) pairs. *)
let read_complex mem base n =
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- Phys_mem.read_f32 mem (base + (8 * i));
    im.(i) <- Phys_mem.read_f32 mem (base + (8 * i) + 4)
  done;
  (re, im)

let write_complex mem base re im =
  Array.iteri
    (fun i r ->
       Phys_mem.write_f32 mem (base + (8 * i)) r;
       Phys_mem.write_f32 mem (base + (8 * i) + 4) im.(i))
    re

let read_bits mem base n =
  Array.init n (fun i -> if Phys_mem.read_u8 mem (base + i) = 0 then 0 else 1)

let write_bits mem base bits =
  Array.iteri (fun i b -> Phys_mem.write_u8 mem (base + i) b) bits

(* Additive scrambler: degree-[deg] Fibonacci LFSR (taps x^deg + x + 1),
   one keystream byte per input byte, XORed through — self-inverse, so
   scrambling twice restores the input. PARAM seeds the register. *)
let lfsr_stream ~deg ~seed n =
  let mask = (1 lsl deg) - 1 in
  let state = ref (let s = seed land mask in if s = 0 then 1 else s) in
  Array.init n (fun _ ->
      let byte = ref 0 in
      for bit = 0 to 7 do
        let out = !state land 1 in
        let fb = out lxor ((!state lsr 1) land 1) in
        state := ((!state lsr 1) lor (fb lsl (deg - 1))) land mask;
        byte := !byte lor (out lsl bit)
      done;
      !byte)

(* Digest round function: 4×32-bit state, xorshift-style mixing with a
   golden-ratio round constant; [rounds] iterations per 64-byte block,
   finalized into a 32-byte output. Deterministic, parameterized by
   PARAM as an initial tweak. *)
let m32 = 0xFFFFFFFF

let digest_mix a b =
  let a = (a lxor (a lsl 13)) land m32 in
  let a = a lxor (a lsr 17) in
  let a = (a lxor (a lsl 5)) land m32 in
  (a + b) land m32

let run mem j =
  (match validate j with Ok () -> () | Error e -> invalid_arg e);
  match j.kind with
  | Task_kind.Fft points ->
    let inverse = j.param land 1 = 1 in
    let blocks = j.len / points in
    for b = 0 to blocks - 1 do
      let off = 8 * b * points in
      let re, im = read_complex mem (j.src + off) points in
      Fft.transform ~inverse re im;
      write_complex mem (j.dst + off) re im
    done
  | Task_kind.Fir taps ->
    let h = Fir.design ~taps (fir_response j) in
    let x =
      Array.init j.len (fun i -> Phys_mem.read_f32 mem (j.src + (4 * i)))
    in
    Array.iteri
      (fun i y -> Phys_mem.write_f32 mem (j.dst + (4 * i)) y)
      (Fir.apply h x)
  | Task_kind.Qam m ->
    let order = Qam.order_of_int m in
    if demod j then begin
      let nsym = j.len / bits_per_symbol m in
      let i_arr, q_arr = read_complex mem j.src nsym in
      write_bits mem j.dst (Qam.demodulate order ~i:i_arr ~q:q_arr)
    end
    else begin
      let bits = read_bits mem j.src j.len in
      let i_arr, q_arr = Qam.modulate order ~bits in
      write_complex mem j.dst i_arr q_arr
    end
  | Task_kind.Fft_stream points ->
    (* Same numerics as the lump-sum FFT core — only the timing model
       differs (see [Task_kind.compute_cycles]). *)
    let inverse = j.param land 1 = 1 in
    let blocks = j.len / points in
    for b = 0 to blocks - 1 do
      let off = 8 * b * points in
      let re, im = read_complex mem (j.src + off) points in
      Fft.transform ~inverse re im;
      write_complex mem (j.dst + off) re im
    done
  | Task_kind.Scramble deg ->
    let key = lfsr_stream ~deg ~seed:j.param j.len in
    for i = 0 to j.len - 1 do
      Phys_mem.write_u8 mem (j.dst + i)
        (Phys_mem.read_u8 mem (j.src + i) lxor key.(i))
    done
  | Task_kind.Digest rounds ->
    let st = [| 0x243F6A88; 0x85A308D3; 0x13198A2E; 0x03707344 |] in
    st.(0) <- st.(0) lxor (j.param land m32);
    let blocks = j.len / 64 in
    for b = 0 to blocks - 1 do
      for w = 0 to 15 do
        let base = j.src + (64 * b) + (4 * w) in
        let word =
          Phys_mem.read_u8 mem base
          lor (Phys_mem.read_u8 mem (base + 1) lsl 8)
          lor (Phys_mem.read_u8 mem (base + 2) lsl 16)
          lor (Phys_mem.read_u8 mem (base + 3) lsl 24)
        in
        st.(w land 3) <- digest_mix st.(w land 3) word
      done;
      for _ = 1 to rounds do
        let t = st.(0) in
        st.(0) <- digest_mix st.(0) st.(1);
        st.(1) <- digest_mix st.(1) st.(2);
        st.(2) <- digest_mix st.(2) st.(3);
        st.(3) <- digest_mix st.(3) (t + 0x9E3779B9)
      done
    done;
    for w = 0 to 7 do
      let word = digest_mix st.(w land 3) (w * 0x9E3779B9) in
      for byte = 0 to 3 do
        Phys_mem.write_u8 mem (j.dst + (4 * w) + byte)
          ((word lsr (8 * byte)) land 0xff)
      done
    done
  | Task_kind.Matmul n ->
    (* C = A·A per n×n float32 block, row-major. *)
    let blocks = j.len / (n * n) in
    for b = 0 to blocks - 1 do
      let off = 4 * b * n * n in
      let a =
        Array.init (n * n)
          (fun i -> Phys_mem.read_f32 mem (j.src + off + (4 * i)))
      in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc := !acc +. (a.((r * n) + k) *. a.((k * n) + c))
          done;
          Phys_mem.write_f32 mem (j.dst + off + (4 * ((r * n) + c))) !acc
        done
      done
    done
