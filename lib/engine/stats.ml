(* All fields are floats (the count too, exact below 2^53), so the
   record is stored flat and [add] updates it without boxing. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0.; min = nan; max = nan }

let add t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1. then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let clear t =
  t.n <- 0.;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.min <- nan;
  t.max <- nan

let count t = int_of_float t.n
let mean t = if t.n = 0. then 0. else t.mean
let min t = t.min
let max t = t.max

let stddev t =
  if t.n < 2. then 0. else sqrt (t.m2 /. (t.n -. 1.))

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    { n; mean; m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max }
  end
