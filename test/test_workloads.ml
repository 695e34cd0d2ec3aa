(* Tests for the DSP workloads: FFT, QAM, ADPCM, GSM-LPC, signals. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float

(* --- FFT --- *)

let test_fft_impulse () =
  (* DFT of a unit impulse is flat ones. *)
  let n = 64 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Fft.transform re im;
  Array.iter (fun x -> check (cf 1e-9) "flat re" 1.0 x) re;
  Array.iter (fun x -> check (cf 1e-9) "flat im" 0.0 x) im

let test_fft_single_tone () =
  (* A pure tone at bin k concentrates energy there. *)
  let n = 256 and k = 17 in
  let re =
    Array.init n (fun i ->
        cos (2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n))
  in
  let im = Array.make n 0.0 in
  Fft.transform re im;
  let mags = Fft.magnitudes re im in
  check (cf 1e-6) "peak at k" (float_of_int n /. 2.0) mags.(k);
  check (cf 1e-6) "mirror peak" (float_of_int n /. 2.0) mags.(n - k);
  check (cf 1e-6) "dc empty" 0.0 mags.(0)

let test_fft_bad_inputs () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Fft.transform: length must be a power of two >= 2")
    (fun () -> Fft.transform (Array.make 12 0.0) (Array.make 12 0.0));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fft.transform: re/im length mismatch") (fun () ->
        Fft.transform (Array.make 8 0.0) (Array.make 4 0.0))

let prop_fft_roundtrip =
  QCheck2.Test.make ~name:"FFT then inverse restores input" ~count:50
    QCheck2.Gen.(pair (int_range 3 10) int)
    (fun (logn, seed) ->
       let n = 1 lsl logn in
       let rng = Rng.create ~seed in
       let re = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
       let im = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
       let r = Array.copy re and i = Array.copy im in
       Fft.transform r i;
       Fft.transform ~inverse:true r i;
       Fft.max_error r re < 1e-9 && Fft.max_error i im < 1e-9)

let prop_fft_parseval =
  QCheck2.Test.make ~name:"FFT preserves energy (Parseval)" ~count:50
    QCheck2.Gen.(pair (int_range 3 9) int)
    (fun (logn, seed) ->
       let n = 1 lsl logn in
       let rng = Rng.create ~seed in
       let re = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
       let im = Array.make n 0.0 in
       let energy a b =
         let s = ref 0.0 in
         Array.iteri (fun k x -> s := !s +. (x *. x) +. (b.(k) *. b.(k))) a;
         !s
       in
       let e_time = energy re im in
       let r = Array.copy re and i = Array.copy im in
       Fft.transform r i;
       let e_freq = energy r i /. float_of_int n in
       Float.abs (e_time -. e_freq) < 1e-6 *. (1.0 +. e_time))

(* --- QAM --- *)

let orders = [ Qam.Qam4; Qam.Qam16; Qam.Qam64 ]

(* The bit label of every symbol, in modulation order. *)
let labels o =
  let bps = Qam.bits_per_symbol o in
  Array.init (1 lsl bps) (fun sym ->
      Array.init bps (fun b -> (sym lsr (bps - 1 - b)) land 1))

(* The point [modulate] maps each label to. *)
let constellation o =
  Array.map
    (fun bits ->
       let i, q = Qam.modulate o ~bits in
       (i.(0), q.(0)))
    (labels o)

let test_qam_constellation_energy () =
  List.iter
    (fun o ->
       let pts = constellation o in
       let e =
         Array.fold_left (fun acc (i, q) -> acc +. (i *. i) +. (q *. q)) 0.0 pts
         /. float_of_int (Array.length pts)
       in
       check (cf 1e-9) "unit average energy" 1.0 e)
    orders

let prop_qam_roundtrip =
  QCheck2.Test.make ~name:"QAM modulate/demodulate roundtrip" ~count:100
    QCheck2.Gen.(triple (oneofl orders) (int_range 1 64) int)
    (fun (o, nsym, seed) ->
       let rng = Rng.create ~seed in
       let bits =
         Array.init (nsym * Qam.bits_per_symbol o) (fun _ -> Rng.int rng 2)
       in
       let i, q = Qam.modulate o ~bits in
       Qam.demodulate o ~i ~q = bits)

let test_qam_noise_tolerance () =
  (* Hard decision survives noise well inside the decision distance. *)
  let o = Qam.Qam16 in
  let rng = Rng.create ~seed:5 in
  let bits = Array.init 400 (fun _ -> Rng.int rng 2) in
  let i, q = Qam.modulate o ~bits in
  let d = 2.0 /. sqrt 10.0 in
  let jitter = 0.3 *. d /. 2.0 in
  let ni = Array.map (fun x -> x +. (Rng.float rng (2.0 *. jitter)) -. jitter) i in
  let nq = Array.map (fun x -> x +. (Rng.float rng (2.0 *. jitter)) -. jitter) q in
  check (cf 0.0) "no bit errors under mild noise" 0.0
    (Signal.ber bits (Qam.demodulate o ~i:ni ~q:nq))

let test_qam_validation () =
  Alcotest.check_raises "bad order" (Invalid_argument "Qam.order_of_int: 8")
    (fun () -> ignore (Qam.order_of_int 8));
  Alcotest.check_raises "bad bit count"
    (Invalid_argument "Qam.modulate: bit count not a multiple of bits/symbol")
    (fun () -> ignore (Qam.modulate Qam.Qam16 ~bits:(Array.make 3 0)))

(* --- ADPCM --- *)

(* A 440 Hz tone at 8 kHz, and uniform noise in [±amplitude]. *)
let tone n =
  Array.init n (fun i ->
      int_of_float (8000.0 *. sin (2.0 *. Float.pi *. 440.0 *. float_of_int i /. 8000.0)))

let noise rng ~amplitude n =
  Array.init n (fun _ -> Rng.int rng ((2 * amplitude) + 1) - amplitude)

let test_adpcm_sine_quality () =
  let pcm = tone 800 in
  let decoded = Adpcm.decode (Adpcm.encode pcm) in
  (* Skip the adaptation ramp, then demand reasonable fidelity. *)
  let worst = ref 0 in
  for i = 100 to 799 do
    worst := max !worst (abs (pcm.(i) - decoded.(i)))
  done;
  check cb "tracking error bounded" true (!worst < 2000)

let test_adpcm_codes_in_range () =
  let rng = Rng.create ~seed:11 in
  let pcm = noise rng ~amplitude:20000 512 in
  Array.iter
    (fun c -> check cb "4-bit code" true (c >= 0 && c <= 15))
    (Adpcm.encode pcm)

let prop_adpcm_decoder_matches_encoder_state =
  QCheck2.Test.make ~name:"ADPCM encoder predictor = decoder output" ~count:50
    QCheck2.Gen.(int)
    (fun seed ->
       (* The encoder's internal reconstruction must equal what the
          decoder produces — otherwise they drift apart. *)
       let rng = Rng.create ~seed in
       let pcm = noise rng ~amplitude:10000 200 in
       let enc = Adpcm.init_state () and dec = Adpcm.init_state () in
       Array.for_all
         (fun s ->
            let code = Adpcm.encode_sample enc s in
            let out = Adpcm.decode_sample dec code in
            enc.Adpcm.predictor = out)
         pcm)

(* The fused roundtrip is the largest per-sample error of decode after
   encode, and stays bounded on the speech-like input the Table III
   guests model. *)
let prop_adpcm_roundtrip_error =
  QCheck2.Test.make ~name:"ADPCM roundtrip_error = max decode/encode error"
    ~count:20 QCheck2.Gen.int
    (fun seed ->
       let pcm = Signal.speech_like (Rng.create ~seed) 1024 in
       let decoded = Adpcm.decode (Adpcm.encode pcm) in
       let worst = ref 0 in
       Array.iteri (fun i s -> worst := max !worst (abs (s - pcm.(i)))) decoded;
       Adpcm.roundtrip_error pcm = !worst && !worst <= 20000)

let test_adpcm_silence () =
  let silent = Array.make 64 0 in
  let decoded = Adpcm.decode (Adpcm.encode silent) in
  check cb "silence stays near zero" true
    (Array.for_all (fun s -> abs s < 32) decoded)

(* --- GSM LPC --- *)

let test_gsm_frame_size_check () =
  Alcotest.check_raises "wrong frame size"
    (Invalid_argument "Gsm_lpc: frame must be 160 samples") (fun () ->
        ignore (Gsm_lpc.analyze (Array.make 100 0)))

let test_gsm_reflection_bounds () =
  let rng = Rng.create ~seed:3 in
  let frame = Signal.speech_like rng Gsm_lpc.frame_size in
  let r = Gsm_lpc.reflection_coefficients frame in
  check ci "order 8" 8 (Array.length r);
  Array.iter
    (fun k -> check cb "|k| <= 1" true (Float.abs k <= 1.0 +. 1e-9))
    r

let test_gsm_prediction_gain () =
  (* Speech-like (correlated) signal: LPC must reduce residual energy.
     The residual keeps the product of (1 - k^2) over the reflection
     coefficients of the frame's energy. *)
  let rng = Rng.create ~seed:4 in
  let frame = Signal.speech_like rng Gsm_lpc.frame_size in
  let kept =
    Array.fold_left
      (fun e k -> e *. (1.0 -. (k *. k)))
      1.0
      (Gsm_lpc.reflection_coefficients frame)
  in
  check cb "residual below raw energy" true (kept < 1.0);
  check cb "residual positive" true (kept >= 0.0)

let test_gsm_speech_lars () =
  List.iter
    (fun seed ->
       let frame = Signal.speech_like (Rng.create ~seed) Gsm_lpc.frame_size in
       check ci "8 LARs" 8 (Array.length (Gsm_lpc.analyze frame)))
    [ 1; 2; 3; 42 ]

let test_gsm_silence () =
  check cb "silent frame yields zero LARs" true
    (Array.for_all (( = ) 0) (Gsm_lpc.analyze (Array.make 160 0)))

(* --- FIR --- *)

(* Sum of the coefficients, and the magnitude response in dB at a
   normalised frequency. *)
let dc_gain h = Array.fold_left ( +. ) 0.0 h

let attenuation_db h ~freq =
  let re = ref 0.0 and im = ref 0.0 in
  Array.iteri
    (fun k c ->
       let w = 2.0 *. Float.pi *. freq *. float_of_int k in
       re := !re +. (c *. cos w);
       im := !im -. (c *. sin w))
    h;
  20.0 *. log10 (Float.max 1e-12 (sqrt ((!re *. !re) +. (!im *. !im))))

let test_fir_design_checks () =
  Alcotest.check_raises "even taps"
    (Invalid_argument "Fir.design: taps must be odd and >= 5") (fun () ->
        ignore (Fir.design ~taps:8 (Fir.Lowpass 0.1)));
  Alcotest.check_raises "bad cutoff"
    (Invalid_argument "Fir.design: cutoff must be in (0, 0.5)") (fun () ->
        ignore (Fir.design ~taps:31 (Fir.Lowpass 0.7)))

let test_fir_lowpass_response () =
  let h = Fir.design ~taps:63 (Fir.Lowpass 0.15) in
  check (cf 0.02) "unit DC gain" 1.0 (dc_gain h);
  check cb "passband flat" true (attenuation_db h ~freq:0.05 > -1.0);
  check cb "stopband attenuated" true (attenuation_db h ~freq:0.35 < -40.0)

let test_fir_highpass_response () =
  let h = Fir.design ~taps:63 (Fir.Highpass 0.25) in
  check cb "DC blocked" true (Float.abs (dc_gain h) < 0.01);
  check cb "high band passes" true (attenuation_db h ~freq:0.4 > -1.0);
  check cb "low band attenuated" true (attenuation_db h ~freq:0.05 < -40.0)

let test_fir_apply_separates_tones () =
  (* A low tone plus a high tone; the lowpass keeps only the former. *)
  let n = 512 in
  let low = Array.init n (fun i -> sin (2.0 *. Float.pi *. 0.03 *. float_of_int i)) in
  let mixed =
    Array.mapi
      (fun i v -> v +. sin (2.0 *. Float.pi *. 0.4 *. float_of_int i))
      low
  in
  let h = Fir.design ~taps:63 (Fir.Lowpass 0.12) in
  let y = Fir.apply h mixed in
  (* Compare against the low tone, ignoring the filter's settling and
     its group delay of (taps-1)/2 samples. *)
  let delay = 31 in
  let err = ref 0.0 in
  for i = 128 to n - 1 do
    err := Float.max !err (Float.abs (y.(i) -. low.(i - delay)))
  done;
  check cb "high tone removed" true (!err < 0.05)

let prop_fir_linearity =
  QCheck2.Test.make ~name:"FIR is linear" ~count:50
    QCheck2.Gen.(pair int (float_range 0.1 5.0))
    (fun (seed, a) ->
       let rng = Rng.create ~seed in
       let h = Fir.design ~taps:31 (Fir.Lowpass 0.2) in
       let x = Array.init 64 (fun _ -> Rng.float rng 2.0 -. 1.0) in
       let scaled = Fir.apply h (Array.map (( *. ) a) x) in
       let ref_out = Array.map (( *. ) a) (Fir.apply h x) in
       Array.for_all2
         (fun u v -> Float.abs (u -. v) < 1e-9 *. (1.0 +. Float.abs v))
         scaled ref_out)

let prop_fir_shift_invariance =
  QCheck2.Test.make ~name:"FIR is time-invariant" ~count:50 QCheck2.Gen.int
    (fun seed ->
       let rng = Rng.create ~seed in
       let h = Fir.design ~taps:31 (Fir.Lowpass 0.2) in
       let n = 96 and d = 7 in
       let x = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
       let shifted = Array.init n (fun i -> if i < d then 0.0 else x.(i - d)) in
       let y = Fir.apply h x and ys = Fir.apply h shifted in
       (* Compare where both outputs see full history. *)
       let ok = ref true in
       for i = 31 + d to n - 1 do
         if Float.abs (ys.(i) -. y.(i - d)) > 1e-9 then ok := false
       done;
       !ok)

let prop_qam_gray_adjacency =
  (* Gray mapping: horizontally/vertically adjacent constellation
     points differ in exactly one bit — the property that makes QAM
     robust to small noise. *)
  QCheck2.Test.make ~name:"QAM neighbours differ by one bit" ~count:60
    QCheck2.Gen.(oneofl orders)
    (fun o ->
       let pts = constellation o in
       let labels = labels o in
       let m = Array.length pts in
       let step =
         (* grid spacing = 2 * scale *)
         let dists =
           Array.to_list
             (Array.mapi
                (fun i (xi, _) ->
                   Array.fold_left
                     (fun acc (xj, _) ->
                        let d = Float.abs (xi -. xj) in
                        if d > 1e-9 && d < acc then d else acc)
                     infinity pts
                   |> fun v -> if i = 0 then v else v)
                pts)
         in
         List.fold_left Float.min infinity dists
       in
       let bits_of sym = Array.to_list labels.(sym) in
       let ok = ref true in
       for s1 = 0 to m - 1 do
         for s2 = 0 to m - 1 do
           let (x1, y1) = pts.(s1) and (x2, y2) = pts.(s2) in
           let adjacent =
             (Float.abs (x1 -. x2) < step *. 1.01
              && Float.abs (x1 -. x2) > step *. 0.99
              && Float.abs (y1 -. y2) < 1e-9)
             || (Float.abs (y1 -. y2) < step *. 1.01
                 && Float.abs (y1 -. y2) > step *. 0.99
                 && Float.abs (x1 -. x2) < 1e-9)
           in
           if adjacent then begin
             let diff =
               List.fold_left2
                 (fun acc a b -> if a <> b then acc + 1 else acc)
                 0 (bits_of s1) (bits_of s2)
             in
             if diff <> 1 then ok := false
           end
         done
       done;
       !ok)

(* --- Signals --- *)

let test_signal_ber () =
  check (cf 0.0) "identical" 0.0 (Signal.ber [| 1; 0; 1 |] [| 1; 0; 1 |]);
  check (cf 1e-9) "one of four" 0.25 (Signal.ber [| 1; 0; 1; 0 |] [| 1; 0; 0; 0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Signal.ber: length mismatch") (fun () ->
        ignore (Signal.ber [| 1 |] [| 1; 0 |]))

let test_signal_speech_deterministic () =
  let gen seed = Signal.speech_like (Rng.create ~seed) 512 in
  check (Alcotest.array ci) "same seed, same samples" (gen 7) (gen 7);
  check cb "other seed, other samples" true (gen 7 <> gen 8)

let test_signal_speech_range () =
  let s = Signal.speech_like (Rng.create ~seed:5) 2048 in
  check ci "requested length" 2048 (Array.length s);
  check cb "within 16-bit PCM" true
    (Array.for_all (fun v -> v <= 32767 && v >= -32768) s);
  check cb "not silent" true (Array.exists (fun v -> abs v > 1000) s)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "workloads",
    [ t "fft impulse" test_fft_impulse;
      t "fft single tone" test_fft_single_tone;
      t "fft bad inputs" test_fft_bad_inputs;
      QCheck_alcotest.to_alcotest prop_fft_roundtrip;
      QCheck_alcotest.to_alcotest prop_fft_parseval;
      t "qam constellation energy" test_qam_constellation_energy;
      QCheck_alcotest.to_alcotest prop_qam_roundtrip;
      t "qam noise tolerance" test_qam_noise_tolerance;
      t "qam validation" test_qam_validation;
      t "adpcm sine quality" test_adpcm_sine_quality;
      t "adpcm code range" test_adpcm_codes_in_range;
      QCheck_alcotest.to_alcotest prop_adpcm_decoder_matches_encoder_state;
      t "adpcm silence" test_adpcm_silence;
      t "gsm frame size" test_gsm_frame_size_check;
      t "gsm reflection bounds" test_gsm_reflection_bounds;
      t "gsm prediction gain" test_gsm_prediction_gain;
      t "gsm silence" test_gsm_silence;
      t "fir design checks" test_fir_design_checks;
      t "fir lowpass response" test_fir_lowpass_response;
      t "fir highpass response" test_fir_highpass_response;
      t "fir separates tones" test_fir_apply_separates_tones;
      QCheck_alcotest.to_alcotest prop_fir_linearity;
      QCheck_alcotest.to_alcotest prop_fir_shift_invariance;
      QCheck_alcotest.to_alcotest prop_qam_gray_adjacency;
      t "signal ber" test_signal_ber;
      QCheck_alcotest.to_alcotest prop_adpcm_roundtrip_error;
      t "signal speech_like deterministic" test_signal_speech_deterministic;
      t "signal speech_like pcm range" test_signal_speech_range;
      t "gsm speech frame gives 8 LARs" test_gsm_speech_lars ] )
