type response = Lowpass of float | Highpass of float

let check_taps taps =
  if taps < 5 || taps land 1 = 0 then
    invalid_arg "Fir.design: taps must be odd and >= 5"

let sinc x = if Float.abs x < 1e-12 then 1.0 else sin x /. x

let design ~taps response =
  check_taps taps;
  let fc =
    match response with
    | Lowpass fc | Highpass fc ->
      if fc <= 0.0 || fc >= 0.5 then
        invalid_arg "Fir.design: cutoff must be in (0, 0.5)";
      fc
  in
  let m = (taps - 1) / 2 in
  let h =
    Array.init taps (fun i ->
        let k = float_of_int (i - m) in
        (* Hamming-windowed ideal lowpass. *)
        let ideal = 2.0 *. fc *. sinc (2.0 *. Float.pi *. fc *. k) in
        let w =
          0.54
          -. (0.46
              *. cos (2.0 *. Float.pi *. float_of_int i /. float_of_int (taps - 1)))
        in
        ideal *. w)
  in
  match response with
  | Lowpass _ -> h
  | Highpass _ ->
    (* Spectral inversion of the lowpass prototype. *)
    Array.mapi
      (fun i v -> if i = m then 1.0 -. v else -.v)
      h

let apply h x =
  let nt = Array.length h and n = Array.length x in
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for k = 0 to nt - 1 do
        let j = i - k in
        if j >= 0 then acc := !acc +. (h.(k) *. x.(j))
      done;
      !acc)
