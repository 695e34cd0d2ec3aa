let clamp16 v =
  if v > 32767 then 32767 else if v < -32768 then -32768 else v

let speech_like rng n =
  let out = Array.make n 0 in
  let pitch = 64 + Rng.int rng 32 in
  (* Resonator state in a float array: unboxed stores, so the hot loop
     does not allocate (boxed-float refs would, without flambda). *)
  let st = [| 0.0; 0.0 |] in
  (* [phase] counts i mod pitch without a per-sample division. *)
  let phase = ref 0 in
  for i = 0 to n - 1 do
    (* Excitation: pitch pulse train plus light noise. *)
    let pulse = if !phase = 0 then 8000.0 else 0.0 in
    incr phase;
    if !phase = pitch then phase := 0;
    let excitation = pulse +. float_of_int (Rng.int rng 401 - 200) in
    (* Two-pole resonator around ~500 Hz at 8 kHz. *)
    let y1 = Array.unsafe_get st 0 in
    let y = excitation +. (1.52 *. y1) -. (0.64 *. Array.unsafe_get st 1) in
    Array.unsafe_set st 1 y1;
    Array.unsafe_set st 0 y;
    Array.unsafe_set out i (clamp16 (int_of_float (y /. 4.0)))
  done;
  out

let ber a b =
  if Array.length a <> Array.length b then
    invalid_arg "Signal.ber: length mismatch";
  if Array.length a = 0 then 0.0
  else begin
    let errs = ref 0 in
    Array.iteri (fun i x -> if x <> b.(i) then incr errs) a;
    float_of_int !errs /. float_of_int (Array.length a)
  end
