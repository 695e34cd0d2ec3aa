type state = { mutable predictor : int; mutable index : int }

let init_state () = { predictor = 0; index = 0 }

let index_table = [| -1; -1; -1; -1; 2; 4; 6; 8; -1; -1; -1; -1; 2; 4; 6; 8 |]

let step_table =
  [| 7; 8; 9; 10; 11; 12; 13; 14; 16; 17; 19; 21; 23; 25; 28; 31; 34; 37;
     41; 45; 50; 55; 60; 66; 73; 80; 88; 97; 107; 118; 130; 143; 157; 173;
     190; 209; 230; 253; 279; 307; 337; 371; 408; 449; 494; 544; 598; 658;
     724; 796; 876; 963; 1060; 1166; 1282; 1411; 1552; 1707; 1878; 2066;
     2272; 2499; 2749; 3024; 3327; 3660; 4026; 4428; 4871; 5358; 5894;
     6484; 7132; 7845; 8630; 9493; 10442; 11487; 12635; 13899; 15289;
     16818; 18500; 20350; 22385; 24623; 27086; 29794; 32767 |]

(* Annotated so the comparisons compile to integer compares instead of
   the polymorphic (C-call) ones a generalized `clamp` would get. *)
let clamp (lo : int) (hi : int) (v : int) =
  if v < lo then lo else if v > hi then hi else v

(* Straight-line, allocation-free sample kernels: these run millions
   of times per benchmark, and the non-flambda compiler would box the
   obvious [ref]-based formulation. *)

let encode_sample st sample =
  let step = Array.unsafe_get step_table st.index in
  let diff = sample - st.predictor in
  let sign = if diff < 0 then 8 else 0 in
  let d0 = if diff < 0 then -diff else diff in
  let step2 = step lsr 1 in
  let step4 = step lsr 2 in
  let b4 = d0 >= step in
  let d1 = if b4 then d0 - step else d0 in
  let b2 = d1 >= step2 in
  let d2 = if b2 then d1 - step2 else d1 in
  let b1 = d2 >= step4 in
  let delta =
    (step lsr 3)
    + (if b4 then step else 0)
    + (if b2 then step2 else 0)
    + (if b1 then step4 else 0)
  in
  let code =
    sign lor (if b4 then 4 else 0) lor (if b2 then 2 else 0)
    lor (if b1 then 1 else 0)
  in
  st.predictor <-
    clamp (-32768) 32767
      (if sign <> 0 then st.predictor - delta else st.predictor + delta);
  st.index <- clamp 0 88 (st.index + Array.unsafe_get index_table code);
  code

let decode_sample st code =
  let step = Array.unsafe_get step_table st.index in
  let delta =
    (step lsr 3)
    + (if code land 4 <> 0 then step else 0)
    + (if code land 2 <> 0 then step lsr 1 else 0)
    + (if code land 1 <> 0 then step lsr 2 else 0)
  in
  st.predictor <-
    clamp (-32768) 32767
      (if code land 8 <> 0 then st.predictor - delta
       else st.predictor + delta);
  st.index <- clamp 0 88 (st.index + Array.unsafe_get index_table code);
  st.predictor

let encode samples =
  let st = init_state () in
  let n = Array.length samples in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (encode_sample st (Array.unsafe_get samples i))
  done;
  out

let decode codes =
  let st = init_state () in
  let n = Array.length codes in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (decode_sample st (Array.unsafe_get codes i))
  done;
  out

let roundtrip_error samples =
  (* Fused encode → decode → compare in one pass with no intermediate
     buffers and both codec states in locals; produces exactly the
     largest error against [decode (encode samples)] because the
     decoder state depends only on the code sequence. The quantizer
     bits b4/b2/b1 are essentially random on real signals, so the
     obvious if-chains mispredict; the kernel instead uses all-ones /
     all-zero masks ([x asr 62] of a value that is negative exactly
     when the bit is set — magnitudes stay far below 2^61, so the
     shift captures the sign). This verification loop dominates the
     simulated DSP guests' host time. *)
  let ep = ref 0 and ei = ref 0 in
  let dp = ref 0 and di = ref 0 in
  let m = ref 0 in
  for k = 0 to Array.length samples - 1 do
    let s = Array.unsafe_get samples k in
    (* encode_sample: sm = -1 iff diff < 0, m4/m2/m1 = -1 iff the
       corresponding quantizer bit is set. *)
    let step = Array.unsafe_get step_table !ei in
    let diff = s - !ep in
    let sm = diff asr 62 in
    let d0 = (diff lxor sm) - sm in
    let step2 = step lsr 1 in
    let step4 = step lsr 2 in
    let m4 = (step - 1 - d0) asr 62 in
    let d1 = d0 - (step land m4) in
    let m2 = (step2 - 1 - d1) asr 62 in
    let d2 = d1 - (step2 land m2) in
    let m1 = (step4 - 1 - d2) asr 62 in
    let delta =
      (step lsr 3) + (step land m4) + (step2 land m2) + (step4 land m1)
    in
    let code = (sm land 8) lor (4 land m4) lor (2 land m2) lor (1 land m1) in
    ep := clamp (-32768) 32767 (!ep + ((delta lxor sm) - sm));
    ei := clamp 0 88 (!ei + Array.unsafe_get index_table code);
    (* decode_sample, with the code bits expanded to masks the same
       way. *)
    let dstep = Array.unsafe_get step_table !di in
    let c4 = -((code lsr 2) land 1) in
    let c2 = -((code lsr 1) land 1) in
    let c1 = -(code land 1) in
    let ddelta =
      (dstep lsr 3) + (dstep land c4)
      + ((dstep lsr 1) land c2) + ((dstep lsr 2) land c1)
    in
    let dm = -((code lsr 3) land 1) in
    dp := clamp (-32768) 32767 (!dp + ((ddelta lxor dm) - dm));
    di := clamp 0 88 (!di + Array.unsafe_get index_table code);
    let d = s - !dp in
    let d = (d lxor (d asr 62)) - (d asr 62) in
    if d > !m then m := d
  done;
  !m
