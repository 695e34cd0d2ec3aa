let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantiles.nearest_rank: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method='exclusive'): cut point i
   sits at position i * (len + 1) / 4, clamped to the interior and
   interpolated in exact integer arithmetic. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quantiles.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (cut 1, cut 2, cut 3)
  end

let iqr_share xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med
