type t = {
  first : int;
  holders : int array;   (* by id - first; -1 = free *)
  released : int Queue.t;
  mutable fresh : int;
  mutable live : int;
}

let create ~first ~limit =
  { first; holders = Array.make (limit - first) (-1);
    released = Queue.create (); fresh = first; live = 0 }

let recycles_next t = not (Queue.is_empty t.released)

let take t ~holder =
  let id =
    match Queue.take_opt t.released with
    | Some id -> id
    | None when t.fresh < t.first + Array.length t.holders ->
      t.fresh <- t.fresh + 1;
      t.fresh - 1
    | None -> -1
  in
  if id < 0 then None
  else begin
    t.holders.(id - t.first) <- holder;
    t.live <- t.live + 1;
    Some id
  end

let holder t id =
  let i = id - t.first in
  if i < 0 || i >= Array.length t.holders then -1 else t.holders.(i)

let release t id =
  if holder t id < 0 then invalid_arg "Id_pool.release: id not live";
  t.holders.(id - t.first) <- -1;
  t.live <- t.live - 1;
  Queue.push id t.released

let set_holder t id h = t.holders.(id - t.first) <- h
let live t = t.live
