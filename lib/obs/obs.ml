let log2_buckets = 40

(* Bucket i holds 2^(i-1) <= v < 2^i; 0 holds v <= 0; the last bucket
   absorbs the tail. Total over all ints. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (bits v 0) (log2_buckets - 1)
  end

type counter = { c_name : string; mutable c_val : int; c_on : bool ref }
type gauge = { g_name : string; mutable g_val : int; g_on : bool ref }

type histogram = {
  h_name : string;
  h_on : bool ref;
  buckets : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

(* One (component, key) rollup cell. *)
type cell_state = {
  component : string;
  key : int;
  mutable calls : int;
  mutable cycles : int;
  mutable max_cycles : int;
  cbuckets : int array;
  mutable meter_sums : int array;  (* parallel to the registry's meters *)
}

type span = {
  sp_cell : cell_state;
  sp_start : int;
  sp_meters : int array;  (* meter readings at open *)
}

(* Shared token returned by [open_span] on a disabled registry. *)
let null_cell =
  { component = ""; key = -1; calls = 0; cycles = 0; max_cycles = 0;
    cbuckets = [||]; meter_sums = [||] }

let null_span = { sp_cell = null_cell; sp_start = 0; sp_meters = [||] }

type t = {
  on : bool ref;
  cpu : int;  (* pCPU id stamped on every cell this registry emits *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
  cells : (string * int, cell_state) Hashtbl.t;
  mutable meters : (string * (unit -> int)) array;
  mutable stack : span list;
}

let create ?(enabled = true) ?(cpu = 0) () =
  if cpu < 0 then invalid_arg "Obs.create: negative cpu";
  { on = ref enabled;
    cpu;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    cells = Hashtbl.create 32;
    meters = [||];
    stack = [] }

let set_enabled t v = t.on := v
let cpu t = t.cpu

let reset t =
  if t.stack <> [] then invalid_arg "Obs.reset: spans are open";
  Hashtbl.iter (fun _ c -> c.c_val <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_val <- 0) t.gauges;
  Hashtbl.iter
    (fun _ h ->
       Array.fill h.buckets 0 (Array.length h.buckets) 0;
       h.count <- 0; h.total <- 0; h.min_v <- max_int; h.max_v <- min_int)
    t.hists;
  Hashtbl.reset t.cells

(* --- counters / gauges / histograms --- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_val = 0; c_on = t.on } in
    Hashtbl.replace t.counters name c;
    c

let incr c = if !(c.c_on) then c.c_val <- c.c_val + 1

let counter_value c = c.c_val

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_val = 0; g_on = t.on } in
    Hashtbl.replace t.gauges name g;
    g

let set_gauge g v = if !(g.g_on) then g.g_val <- v
let gauge_value g = g.g_val

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h =
      { h_name = name; h_on = t.on; buckets = Array.make log2_buckets 0;
        count = 0; total = 0; min_v = max_int; max_v = min_int }
    in
    Hashtbl.replace t.hists name h;
    h

let observe h v =
  if !(h.h_on) then begin
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.total <- h.total + v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v
  end

(* --- meters --- *)

let register_meter t name f =
  t.meters <- Array.append t.meters [| (name, f) |]

let read_meters t =
  Array.map (fun (_, f) -> f ()) t.meters

(* --- cells and spans --- *)

let cell_state t component key =
  match Hashtbl.find_opt t.cells (component, key) with
  | Some c -> c
  | None ->
    let c =
      { component; key; calls = 0; cycles = 0; max_cycles = 0;
        cbuckets = Array.make log2_buckets 0;
        meter_sums = Array.make (Array.length t.meters) 0 }
    in
    Hashtbl.replace t.cells (component, key) c;
    c

let attribute cell dt =
  cell.calls <- cell.calls + 1;
  cell.cycles <- cell.cycles + dt;
  if dt > cell.max_cycles then cell.max_cycles <- dt;
  let b = bucket_of dt in
  cell.cbuckets.(b) <- cell.cbuckets.(b) + 1

let open_span t ~component ~key ~at =
  if not !(t.on) then null_span
  else begin
    let sp =
      { sp_cell = cell_state t component key;
        sp_start = at;
        sp_meters = read_meters t }
    in
    t.stack <- sp :: t.stack;
    sp
  end

let close_span t sp ~at =
  if sp == null_span then ()
  else
    match t.stack with
    | top :: rest when top == sp ->
      t.stack <- rest;
      let cell = sp.sp_cell in
      attribute cell (at - sp.sp_start);
      let n = Array.length sp.sp_meters in
      if Array.length cell.meter_sums < n then begin
        (* a meter was registered after this cell was created *)
        let grown = Array.make n 0 in
        Array.blit cell.meter_sums 0 grown 0 (Array.length cell.meter_sums);
        cell.meter_sums <- grown
      end;
      for i = 0 to n - 1 do
        let _, f = t.meters.(i) in
        cell.meter_sums.(i) <- cell.meter_sums.(i) + (f () - sp.sp_meters.(i))
      done
    | _ -> invalid_arg "Obs.close_span: span is not the innermost open one"

let sample t ~component ~key ~cycles =
  if !(t.on) then attribute (cell_state t component key) cycles

let open_spans t = List.length t.stack

(* --- snapshots --- *)

type hist_data = {
  h_name : string;
  h_count : int;
  h_total : int;
  h_min : int option;
  h_max : int option;
  h_buckets : (int * int) list;
}

type cell = {
  c_component : string;
  c_key : int;
  c_cpu : int;
  c_calls : int;
  c_cycles : int;
  c_max_cycles : int;
  c_buckets : (int * int) list;
  c_meters : (string * int) list;
}

type snapshot = {
  s_enabled : bool;
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_hists : hist_data list;
  s_cells : cell list;
  s_open_spans : int;
}

let nonzero_buckets a =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) <> 0 then acc := (i, a.(i)) :: !acc
  done;
  !acc

let snapshot t =
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  { s_enabled = !(t.on);
    (* Zero-valued instruments are omitted: interning a name records
       nothing, so a never-enabled registry snapshots to
       [empty_snapshot] exactly. *)
    s_counters =
      by_name
        (Hashtbl.fold
           (fun k c acc -> if c.c_val = 0 then acc else (k, c.c_val) :: acc)
           t.counters []);
    s_gauges =
      by_name
        (Hashtbl.fold
           (fun k g acc -> if g.g_val = 0 then acc else (k, g.g_val) :: acc)
           t.gauges []);
    s_hists =
      List.sort
        (fun a b -> String.compare a.h_name b.h_name)
        (Hashtbl.fold
           (fun k h acc ->
              (* A registered-but-never-observed histogram is dropped
                 from a disabled registry (the [empty_snapshot]
                 invariant) but kept — with [None] min/max, never the
                 max_int/min_int fill sentinels — when the registry is
                 live, so JSON consumers see it with a zero count. *)
              if h.count = 0 && not !(t.on) then acc
              else
                { h_name = k; h_count = h.count; h_total = h.total;
                  h_min = (if h.count = 0 then None else Some h.min_v);
                  h_max = (if h.count = 0 then None else Some h.max_v);
                  h_buckets = nonzero_buckets h.buckets }
                :: acc)
           t.hists []);
    s_cells =
      List.sort
        (fun a b ->
           match String.compare a.c_component b.c_component with
           | 0 -> compare a.c_key b.c_key
           | c -> c)
        (Hashtbl.fold
           (fun _ c acc ->
              { c_component = c.component; c_key = c.key; c_cpu = t.cpu;
                c_calls = c.calls;
                c_cycles = c.cycles; c_max_cycles = c.max_cycles;
                c_buckets = nonzero_buckets c.cbuckets;
                c_meters =
                  List.filteri (fun i _ -> i < Array.length c.meter_sums)
                    (Array.to_list t.meters)
                  |> List.mapi (fun i (name, _) -> (name, c.meter_sums.(i))) }
              :: acc)
           t.cells []);
    s_open_spans = List.length t.stack }

let empty_snapshot =
  { s_enabled = false; s_counters = []; s_gauges = []; s_hists = [];
    s_cells = []; s_open_spans = 0 }

(* --- percentiles --- *)

(* Value bounds of bucket [i] as floats: bucket 0 is (-inf, 0], bucket
   i is [2^(i-1), 2^i), the last bucket absorbs the tail. *)
let bucket_lo i = if i = 0 then 0.0 else ldexp 1.0 (i - 1)
let bucket_hi i = if i = 0 then 0.0 else ldexp 1.0 i

let percentile_of_buckets ?min_v ?max_v ~count ~buckets q =
  if count <= 0 then None
  else begin
    (* Nearest-rank target, so the bucket we land in is exactly the
       bucket holding the rank-th smallest observation — which bounds
       the interpolation error by that bucket's width. *)
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let rec find cum = function
      | [] -> None (* buckets inconsistent with count *)
      | (i, n) :: rest ->
        if rank > cum + n then find (cum + n) rest
        else begin
          let lo =
            if i = 0 then
              (match min_v with Some m when m < 0 -> float_of_int m | _ -> 0.0)
            else
              (match min_v with
               | Some m -> Float.max (bucket_lo i) (float_of_int m)
               | None -> bucket_lo i)
          in
          let hi =
            let cap =
              match max_v with
              | Some m -> Float.min (bucket_hi i) (float_of_int m)
              | None -> bucket_hi i
            in
            let cap =
              (* The last bucket has no upper power-of-two bound; the
                 recorded max, when known, is the only honest cap. *)
              if i = log2_buckets - 1 then
                match max_v with
                | Some m -> float_of_int m
                | None -> bucket_hi i
              else cap
            in
            Float.max cap lo
          in
          let frac =
            (float_of_int (rank - cum) -. 0.5) /. float_of_int n
          in
          Some (lo +. ((hi -. lo) *. frac))
        end
    in
    find 0 buckets
  end

let percentile d q =
  percentile_of_buckets ?min_v:d.h_min ?max_v:d.h_max ~count:d.h_count
    ~buckets:d.h_buckets q

let cell_percentile c q =
  percentile_of_buckets
    ?max_v:(if c.c_calls > 0 then Some c.c_max_cycles else None)
    ~count:c.c_calls ~buckets:c.c_buckets q

(* --- JSON --- *)

let snapshot_to_json s =
  let open Json_out in
  let ints l = Obj (List.map (fun (k, v) -> (k, Int v)) l) in
  let buckets l = List (List.map (fun (i, n) -> List [ Int i; Int n ]) l) in
  let bound = function Some v -> Int v | None -> Null in
  Line
    (Obj
       [ ("counters", ints s.s_counters);
         ("gauges", ints s.s_gauges);
         ( "histograms",
           List
             (List.map
                (fun h ->
                   Obj
                     [ ("name", Str h.h_name);
                       ("count", Int h.h_count);
                       ("total", Int h.h_total);
                       ("min", bound h.h_min);
                       ("max", bound h.h_max);
                       ("buckets", buckets h.h_buckets) ])
                s.s_hists) );
         ( "cells",
           List
             (List.map
                (fun c ->
                   Obj
                     [ ("component", Str c.c_component);
                       ("key", Int c.c_key);
                       ("cpu", Int c.c_cpu);
                       ("calls", Int c.c_calls);
                       ("cycles", Int c.c_cycles);
                       ("max_cycles", Int c.c_max_cycles);
                       ("meters", ints c.c_meters);
                       ("buckets", buckets c.c_buckets) ])
                s.s_cells) );
         ("open_spans", Int s.s_open_spans) ])
