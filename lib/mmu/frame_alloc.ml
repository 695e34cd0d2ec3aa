type t = {
  base : Addr.t;
  size : int;
  mutable next : Addr.t;
  (* Size-bucketed free lists: freed chunks are recycled only for a
     same-size request whose alignment they satisfy. Kernel objects
     come in a handful of fixed sizes (16 KB L1 tables, 1 KB L2
     tables), so exact-size bucketing never fragments. *)
  free : (int, Addr.t list ref) Hashtbl.t;
  mutable freed_bytes : int;
  (* Bytes currently handed out: sum of alloc sizes minus frees. Not
     derivable from [next]: bump allocation skips padding to satisfy
     alignment, and padding is not anybody's allocation. *)
  mutable live : int;
  (* Optional overflow region: bump-allocated only after the primary
     region is exhausted, so workloads that fit the primary region see
     byte-identical placement whether or not an overflow is attached. *)
  mutable o_base : Addr.t;
  mutable o_size : int;
  mutable o_next : Addr.t;
}

let create ~base ~size =
  { base; size; next = base; free = Hashtbl.create 4; freed_bytes = 0;
    live = 0; o_base = 0; o_size = 0; o_next = 0 }

let add_region t ~base ~size =
  if t.o_size <> 0 then invalid_arg "Frame_alloc.add_region: already attached";
  if size <= 0 then invalid_arg "Frame_alloc.add_region: empty region";
  t.o_base <- base;
  t.o_size <- size;
  t.o_next <- base

let bucket t n =
  match Hashtbl.find_opt t.free n with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.free n l;
    l

let alloc t ?(align = 4) n =
  let b = bucket t n in
  match List.find_opt (fun a -> Addr.is_aligned a align) !b with
  | Some a ->
    b := List.filter (fun x -> x <> a) !b;
    t.freed_bytes <- t.freed_bytes - n;
    t.live <- t.live + n;
    a
  | None ->
    let a = Addr.align_up t.next align in
    if a + n <= t.base + t.size then begin
      t.next <- a + n;
      t.live <- t.live + n;
      a
    end
    else if t.o_size <> 0 then begin
      let a = Addr.align_up t.o_next align in
      if a + n > t.o_base + t.o_size then
        failwith "Frame_alloc: kernel memory region exhausted";
      t.o_next <- a + n;
      t.live <- t.live + n;
      a
    end
    else failwith "Frame_alloc: kernel memory region exhausted"

let free t addr n =
  let in_primary = addr >= t.base && addr + n <= t.next in
  let in_overflow = addr >= t.o_base && addr + n <= t.o_next in
  if not (in_primary || in_overflow) then
    invalid_arg "Frame_alloc.free: chunk outside the allocated region";
  let b = bucket t n in
  if List.mem addr !b then invalid_arg "Frame_alloc.free: double free";
  b := addr :: !b;
  t.freed_bytes <- t.freed_bytes + n;
  t.live <- t.live - n

let live_bytes t = t.live
