type order = Qam4 | Qam16 | Qam64

let bits_per_symbol = function Qam4 -> 2 | Qam16 -> 4 | Qam64 -> 6

let order_of_int = function
  | 4 -> Qam4
  | 16 -> Qam16
  | 64 -> Qam64
  | n -> invalid_arg (Printf.sprintf "Qam.order_of_int: %d" n)

(* Side length of the square constellation. *)
let side o = match o with Qam4 -> 2 | Qam16 -> 4 | Qam64 -> 8

(* Average energy of the unnormalised grid {±1, ±3, ...}²:
   2·(m²−1)/3 for side m. *)
let scale o =
  let m = float_of_int (side o) in
  1.0 /. sqrt (2.0 *. ((m *. m) -. 1.0) /. 3.0)

let gray v = v lxor (v lsr 1)

let ungray g =
  let rec loop v g = if g = 0 then v else loop (v lxor g) (g lsr 1) in
  loop 0 g

(* Coordinate of gray-coded axis index [k] on a side-[m] grid. *)
let coord o k =
  let m = side o in
  scale o *. float_of_int ((2 * k) - (m - 1))

let modulate o ~bits =
  let bps = bits_per_symbol o in
  let nbits = Array.length bits in
  if nbits mod bps <> 0 then
    invalid_arg "Qam.modulate: bit count not a multiple of bits/symbol";
  Array.iter
    (fun b -> if b <> 0 && b <> 1 then invalid_arg "Qam.modulate: bit not 0/1")
    bits;
  let nsym = nbits / bps in
  let i_out = Array.make nsym 0.0 and q_out = Array.make nsym 0.0 in
  let half = bps / 2 in
  for s = 0 to nsym - 1 do
    let sym = ref 0 in
    for b = 0 to bps - 1 do
      sym := (!sym lsl 1) lor bits.((s * bps) + b)
    done;
    (* High half selects I (Gray), low half selects Q (Gray). *)
    let gi = !sym lsr half and gq = !sym land ((1 lsl half) - 1) in
    i_out.(s) <- coord o (ungray gi);
    q_out.(s) <- coord o (ungray gq)
  done;
  (i_out, q_out)

let nearest o x =
  (* Invert [coord]: index of the closest grid coordinate. *)
  let m = side o in
  let k =
    int_of_float (Float.round (((x /. scale o) +. float_of_int (m - 1)) /. 2.0))
  in
  if k < 0 then 0 else if k > m - 1 then m - 1 else k

let demodulate o ~i ~q =
  if Array.length i <> Array.length q then
    invalid_arg "Qam.demodulate: I/Q length mismatch";
  let bps = bits_per_symbol o in
  let half = bps / 2 in
  let out = Array.make (Array.length i * bps) 0 in
  Array.iteri
    (fun s xi ->
       let gi = gray (nearest o xi) and gq = gray (nearest o q.(s)) in
       let sym = (gi lsl half) lor gq in
       for b = 0 to bps - 1 do
         out.((s * bps) + b) <- (sym lsr (bps - 1 - b)) land 1
       done)
    i;
  out
