type label = int

let residual = 0
let kernel = 1
let guest = 2
let workloads = 3
let ucos_compute = 4
let hyper_request = 5
let hyper_doorbell = 6
let hyper_other = 7
let ring_api = 8
let check = 9

let names =
  [| "residual_s"; "kernel.host_s"; "guest.host_s"; "workloads.host_s";
     "ucos.compute_host_s"; "hyper.request_host_s"; "hyper.doorbell_host_s";
     "hyper.other_host_s"; "ring_api.host_s"; "check.host_s" |]

let all = List.init (Array.length names) Fun.id
let name l = names.(l)

let host_now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  now : unit -> int;
  acc : int array;
  mutable on : bool;
  mutable cur : label;
  mutable last : int;
}

let create ?(now = host_now_ns) () =
  { now; acc = Array.make (Array.length names) 0; on = false;
    cur = residual; last = 0 }

(* Charge the interval since the last transition to the current label
   and make [l] current; returns the label it replaced. *)
let switch t l =
  let prev = t.cur in
  let n = t.now () in
  t.acc.(prev) <- t.acc.(prev) + (n - t.last);
  t.last <- n;
  t.cur <- l;
  prev

let start t =
  Array.fill t.acc 0 (Array.length t.acc) 0;
  t.cur <- residual;
  t.last <- t.now ();
  t.on <- true

let stop t =
  if t.on then begin
    ignore (switch t residual);
    t.on <- false
  end

let timed t l f =
  if not t.on then f ()
  else begin
    let prev = switch t l in
    match f () with
    | v ->
      ignore (switch t prev);
      v
    | exception e ->
      ignore (switch t prev);
      raise e
  end

let suspend t f =
  if not t.on then f ()
  else begin
    ignore (switch t kernel);
    match f () with
    | v ->
      ignore (switch t guest);
      v
    | exception e ->
      ignore (switch t guest);
      raise e
  end

let ns t l = t.acc.(l)
let total_ns t = Array.fold_left ( + ) 0 t.acc
