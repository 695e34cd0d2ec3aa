let frame_size = 160
let order = 8

let check frame =
  if Array.length frame <> frame_size then
    invalid_arg "Gsm_lpc: frame must be 160 samples"

(* Preemphasis then windowed autocorrelation, lags 0..order. The
   accumulators live in float-array cells: float-array loads, stores
   and the arithmetic between them stay unboxed in straight-line
   code, whereas float arguments to a local recursive function are
   boxed at every call without flambda — and these loops run per GSM
   frame per guest. *)
let autocorrelation frame =
  check frame;
  let pre = Array.make frame_size 0.0 in
  for i = 0 to frame_size - 1 do
    let x = float_of_int (Array.unsafe_get frame i) in
    let prev =
      if i = 0 then 0.0 else float_of_int (Array.unsafe_get frame (i - 1))
    in
    Array.unsafe_set pre i (x -. (0.86 *. prev))
  done;
  let acf = Array.make (order + 1) 0.0 in
  for lag = 0 to order do
    for i = lag to frame_size - 1 do
      Array.unsafe_set acf lag
        (Array.unsafe_get acf lag
         +. (Array.unsafe_get pre i *. Array.unsafe_get pre (i - lag)))
    done
  done;
  acf

(* Schur recursion: autocorrelation -> reflection coefficients. *)
let reflection_coefficients frame =
  let acf = autocorrelation frame in
  let r = Array.make order 0.0 in
  if acf.(0) <= 0.0 then r
  else begin
    let p = Array.sub acf 0 (order + 1) in
    let k = Array.make (order + 1) 0.0 in
    Array.blit acf 1 k 1 order;
    (try
       for n = 0 to order - 1 do
         if p.(0) < Float.abs k.(n + 1) then raise Exit;
         let refl = -.k.(n + 1) /. p.(0) in
         r.(n) <- refl;
         p.(0) <- p.(0) +. (refl *. k.(n + 1));
         for m = 1 to order - 1 - n do
           p.(m) <- p.(m + 1) +. (refl *. k.(m + n + 1));
           k.(m + n + 1) <- k.(m + n + 1) +. (refl *. p.(m + 1))
         done
       done
     with Exit -> ());
    r
  end

(* Quantise reflection coefficients to integer log-area ratios,
   GSM-style companding. *)
let analyze frame =
  let r = reflection_coefficients frame in
  Array.map
    (fun refl ->
       let a = Float.abs refl in
       let lar =
         if a < 0.675 then refl
         else if a < 0.950 then Float.copy_sign ((2.0 *. a) -. 0.675) refl
         else Float.copy_sign ((8.0 *. a) -. 6.375) refl
       in
       int_of_float (Float.round (lar *. 16.0)))
    r
