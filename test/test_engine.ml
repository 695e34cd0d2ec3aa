(* Unit and property tests for the simulation engine. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* --- Cycles --- *)

let test_cycles_conversions () =
  check ci "1 us at 660 MHz" 660 (Cycles.of_us 1.0);
  check ci "1 ms" 660_000 (Cycles.of_ms 1.0);
  check (Alcotest.float 1e-9) "us roundtrip" 10.0 (Cycles.to_us (Cycles.of_us 10.0));
  check (Alcotest.float 1e-6) "ns of one cycle" (1.0 /. 0.66)
    (Cycles.to_ns 1)

let test_cycles_zero () =
  check ci "zero" 0 (Cycles.of_us 0.0);
  check (Alcotest.float 0.0) "zero back" 0.0 (Cycles.to_ms 0)

(* --- Clock --- *)

let test_clock_advance () =
  let c = Clock.create () in
  check ci "starts at zero" 0 (Clock.now c);
  Clock.advance c 100;
  check ci "advanced" 100 (Clock.now c);
  Clock.advance_to c 50;
  check ci "never rewinds" 100 (Clock.now c);
  Clock.advance_to c 500;
  check ci "forward jump" 500 (Clock.now c);
  Alcotest.check_raises "negative advance rejected"
    (Invalid_argument "Clock.advance: negative duration") (fun () ->
        Clock.advance c (-1))

(* --- Event queue --- *)

let test_event_order () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let log = ref [] in
  let push tag = log := tag :: !log in
  ignore (Event_queue.schedule_at q 300 (fun () -> push 3));
  ignore (Event_queue.schedule_at q 100 (fun () -> push 1));
  ignore (Event_queue.schedule_at q 200 (fun () -> push 2));
  Clock.advance c 250;
  check ci "two fired" 2 (Event_queue.run_due q);
  check (Alcotest.list ci) "deadline order" [ 1; 2 ] (List.rev !log);
  check ci "one pending" 1 (Event_queue.pending q)

let test_event_fifo_ties () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Event_queue.schedule_at q 10 (fun () -> log := i :: !log))
  done;
  Clock.advance c 10;
  ignore (Event_queue.run_due q);
  check (Alcotest.list ci) "FIFO among equal deadlines" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_event_cancel () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let fired = ref false in
  let id = Event_queue.schedule_at q 10 (fun () -> fired := true) in
  Event_queue.cancel q id;
  Event_queue.cancel q id; (* double-cancel is a no-op *)
  Clock.advance c 20;
  check ci "nothing fires" 0 (Event_queue.run_due q);
  check cb "callback skipped" false !fired;
  check ci "no pending" 0 (Event_queue.pending q)

let test_event_reschedule_from_callback () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Event_queue.schedule_after q 10 tick)
  in
  ignore (Event_queue.schedule_after q 10 tick);
  ignore (Event_queue.advance_until q 100);
  check ci "chain fired to completion" 5 !count;
  check ci "clock at target" 100 (Clock.now c)

let test_advance_until_sets_clock () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let at = ref 0 in
  ignore (Event_queue.schedule_at q 42 (fun () -> at := Clock.now c));
  ignore (Event_queue.advance_until q 1000);
  check ci "fired at its own deadline" 42 !at;
  check ci "clock ends at target" 1000 (Clock.now c)

let test_next_deadline () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  check cb "empty" true (Event_queue.next_deadline q = None);
  let id = Event_queue.schedule_at q 7 ignore in
  ignore (Event_queue.schedule_at q 9 ignore);
  check cb "earliest" true (Event_queue.next_deadline q = Some 7);
  Event_queue.cancel q id;
  check cb "skips cancelled" true (Event_queue.next_deadline q = Some 9)

(* The per-pause poll allocates nothing when nothing is due. The first
   poll drops a cancelled event off the top; the rest find only live
   events in the future. *)
let test_run_due_idle_allocates_nothing () =
  let c = Clock.create () in
  let q = Event_queue.create c in
  let id = Event_queue.schedule_at q 50 ignore in
  ignore (Event_queue.schedule_at q 1_000_000 ignore);
  ignore (Event_queue.schedule_at q 2_000_000 ignore);
  Event_queue.cancel q id;
  let fired = ref (Event_queue.run_due q) in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    fired := !fired + Event_queue.run_due q
  done;
  let words = Gc.minor_words () -. before in
  check ci "nothing fired" 0 !fired;
  check ci "both live events pending" 2 (Event_queue.pending q);
  check (Alcotest.float 0.) "minor words over 10k idle polls" 0. words

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check ci "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int c 1000) in
  check cb "split differs from parent" true (xs <> ys)

let test_rng_pick () =
  let rng = Rng.create ~seed:1 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    check cb "pick member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
        ignore (Rng.pick rng [||]))

let prop_rng_bounds =
  QCheck2.Test.make ~name:"Rng.int stays in [0,n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 10000) int)
    (fun (n, seed) ->
       let rng = Rng.create ~seed in
       let v = Rng.int rng n in
       v >= 0 && v < n)

let prop_rng_float_bounds =
  QCheck2.Test.make ~name:"Rng.float stays in [0,x)" ~count:200
    QCheck2.Gen.(pair (float_range 0.001 1e6) int)
    (fun (x, seed) ->
       let rng = Rng.create ~seed in
       let v = Rng.float rng x in
       v >= 0.0 && v < x)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check ci "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  check ci "count" 0 (Stats.count s);
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "stddev of empty" 0.0 (Stats.stddev s)

let prop_stats_merge =
  QCheck2.Test.make ~name:"Stats.merge equals combined stream" ~count:200
    QCheck2.Gen.(pair (list (float_range (-1e3) 1e3))
                   (list (float_range (-1e3) 1e3)))
    (fun (xs, ys) ->
       let a = Stats.create () and b = Stats.create () and c = Stats.create () in
       List.iter (Stats.add a) xs;
       List.iter (Stats.add b) ys;
       List.iter (Stats.add c) (xs @ ys);
       let m = Stats.merge a b in
       let close x y =
         Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x +. Float.abs y)
       in
       Stats.count m = Stats.count c
       && close (Stats.mean m) (Stats.mean c)
       && close (Stats.stddev m) (Stats.stddev c))

(* --- Parallel_sweep: the one work-handout loop --- *)

let test_sweep_env_rule () =
  let rule = Parallel_sweep.domains_of_env in
  check ci "unset: every recommended domain"
    (Domain.recommended_domain_count ()) (rule None);
  check ci "a positive integer" 3 (rule (Some "3"));
  check ci "trimmed" 2 (rule (Some " 2 "));
  check ci "zero means serial" 1 (rule (Some "0"));
  check ci "garbage means serial" 1 (rule (Some "x"))

let test_sweep_input_order () =
  (* Early items take longest, so a parallel run finishes them last. *)
  let job i =
    for _ = 1 to (40 - i) * 2000 do
      ignore (Sys.opaque_identity i)
    done;
    i * i
  in
  let items = List.init 40 Fun.id in
  let want = List.map (fun i -> i * i) items in
  List.iter
    (fun domains ->
       check (Alcotest.list ci)
         (Printf.sprintf "input order at %d domains" domains)
         want
         (Parallel_sweep.map ~domains job items))
    [ 1; 3 ]

let test_sweep_budget_one_is_inline () =
  let me = Domain.self () in
  let inline = ref true in
  let on_caller _ = if Domain.self () <> me then inline := false in
  Parallel_sweep.iter ~domains:1 on_caller (Array.make 8 ());
  (* The budget is capped by the item count. *)
  Parallel_sweep.iter ~domains:3 on_caller [| () |];
  check cb "every job ran on the calling domain" true !inline

let test_sweep_raises_after_join () =
  (* Job 0 waits until job 1 has failed, then keeps working: the
     re-raise must still wait for it — and for every other job. *)
  let failed = Atomic.make false in
  let finished = Array.init 8 (fun _ -> Atomic.make false) in
  let job i =
    if i = 1 || i = 3 then begin
      if i = 1 then Atomic.set failed true;
      failwith (string_of_int i)
    end;
    if i = 0 then begin
      while not (Atomic.get failed) do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 200_000 do
        ignore (Sys.opaque_identity i)
      done
    end;
    Atomic.set finished.(i) true
  in
  (match Parallel_sweep.iter ~domains:3 job (Array.init 8 Fun.id) with
   | () -> Alcotest.fail "no exception"
   | exception Failure m ->
     check Alcotest.string "the lowest-index failure" "1" m);
  Array.iteri
    (fun i f ->
       if i <> 1 && i <> 3 then
         check cb (Printf.sprintf "job %d finished first" i) true
           (Atomic.get f))
    finished

let test_sweep_inline_runs_every_item () =
  (* Items 0 and 2 raise. Inline (budget 1) and through the pool
     (budget 2) alike, every item runs and item 0's exception comes
     back. *)
  List.iter
    (fun domains ->
       let ran = Array.init 5 (fun _ -> Atomic.make false) in
       let job i =
         Atomic.set ran.(i) true;
         if i = 0 || i = 2 then failwith (string_of_int i)
       in
       (match Parallel_sweep.iter ~domains job (Array.init 5 Fun.id) with
        | () -> Alcotest.fail "no exception"
        | exception Failure m ->
          check Alcotest.string
            (Printf.sprintf "item 0's failure at %d domains" domains) "0" m);
       Array.iteri
         (fun i r ->
            check cb (Printf.sprintf "item %d ran at %d domains" i domains)
              true (Atomic.get r))
         ran)
    [ 1; 2 ]

let test_sweep_handouts () =
  let before = Parallel_sweep.handouts () in
  Parallel_sweep.iter ~domains:1 ignore (Array.make 4 ());
  Parallel_sweep.iter ~domains:3 ignore [| () |];
  check ci "inline calls post nothing" before (Parallel_sweep.handouts ());
  Parallel_sweep.iter ~domains:2 ignore (Array.make 4 ());
  check ci "a pool call posts one job" (before + 1)
    (Parallel_sweep.handouts ())

(* --- The persistent pool behind Parallel_sweep --- *)

let test_pool_exactly_once () =
  (* Back-to-back calls with a budget that changes under the workers:
     a worker that wakes late must never run an item of a newer call,
     and none may be skipped. *)
  let items = Array.init 6 Fun.id in
  let runs = Array.init 6 (fun _ -> Atomic.make 0) in
  let current = Atomic.make 0 and strays = Atomic.make 0 in
  let budgets = [| 3; 2; 4; 1; 3 |] in
  let ok = ref true in
  for call = 0 to 1999 do
    Atomic.set current call;
    Parallel_sweep.iter ~domains:budgets.(call mod Array.length budgets)
      (fun i ->
         if Atomic.get current <> call then Atomic.incr strays;
         Atomic.incr runs.(i))
      items;
    Array.iter (fun r -> if Atomic.get r <> call + 1 then ok := false) runs
  done;
  check cb "every item ran exactly once per call" true !ok;
  check ci "no job of an earlier call ran during a later one" 0
    (Atomic.get strays)

let test_pool_nested_inline () =
  let strays = Atomic.make 0 in
  let job _ =
    let me = Domain.self () in
    Parallel_sweep.iter ~domains:3
      (fun () -> if Domain.self () <> me then Atomic.incr strays)
      (Array.make 5 ())
  in
  Parallel_sweep.iter ~domains:3 job (Array.make 6 ());
  check ci "every nested item ran on its job's domain" 0 (Atomic.get strays)

let test_pool_reuse_after_failure () =
  (match Parallel_sweep.iter ~domains:3 (fun i -> if i = 2 then failwith "x")
           (Array.init 6 Fun.id) with
   | () -> Alcotest.fail "no exception"
   | exception Failure _ -> ());
  check (Alcotest.list ci) "the next call completes in input order"
    (List.init 12 (fun i -> i + 1))
    (Parallel_sweep.map ~domains:3 succ (List.init 12 Fun.id))

let test_pool_concurrent_callers () =
  let items = List.init 9 Fun.id in
  let want = List.map (fun i -> i * 7) items in
  let calls () =
    List.for_all
      (fun _ -> Parallel_sweep.map ~domains:2 (fun i -> i * 7) items = want)
      (List.init 300 Fun.id)
  in
  let other = Domain.spawn calls in
  let mine = calls () in
  check cb "the calling domain's results" true mine;
  check cb "the other domain's results" true (Domain.join other)

let test_json_line () =
  let open Json_out in
  let cs = Alcotest.string in
  check cs "nested containers on one line"
    {|{"a": 1, "o": {"b": [2, null], "e": []}, "s": "x\"y"}|}
    (to_string
       (Line
          (Obj
             [ ("a", Int 1);
               ("o", Obj [ ("b", List [ Int 2; Null ]); ("e", List []) ]);
               ("s", Str "x\"y") ])))

let test_json_line_parent () =
  let open Json_out in
  let cs = Alcotest.string in
  check cs "a parent of Line children stays flat"
    {|{"n": 1, "r": {"k": [1.5]}, "q": [{}]}|}
    (to_string
       (Obj
          [ ("n", Int 1);
            ("r", Line (Obj [ ("k", List [ Float 1.5 ]) ]));
            ("q", Line (List [ Obj [] ])) ]));
  check cs "without Line a nested container breaks lines"
    "{\n  \"r\": [\n    {\"k\": 1}\n  ]\n}"
    (to_string (Obj [ ("r", List [ Obj [ ("k", Int 1) ] ]) ]))

(* [Int_table] against an association-list model: after every
   operation each query agrees with the model, and [fold] and [iter]
   visit every live binding exactly once. Keys mix small ids, negative
   values and the extremes; the table starts at its smallest size, so
   runs of inserts resize it and runs of removes shift long probe
   chains back. *)
let prop_int_table_model =
  let key =
    QCheck2.Gen.(
      oneof
        [ int_bound 40; int_range (-50) 50; int_range 0 300;
          oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; -1 ];
          int ])
  in
  let op = QCheck2.Gen.(pair (int_bound 9) key) in
  QCheck2.Test.make ~name:"int table matches an association-list model"
    ~count:300
    ~print:QCheck2.Print.(list (pair int int))
    QCheck2.Gen.(list_size (int_range 0 600) op)
    (fun ops ->
       let t = Int_table.create 1 in
       let model = ref [] in
       let bindings_ok () =
         let sorted l = List.sort compare l in
         let m = sorted !model in
         sorted (Int_table.fold (fun k v acc -> (k, v) :: acc) t []) = m
         &&
         let seen = ref [] in
         Int_table.iter (fun k v -> seen := (k, v) :: !seen) t;
         sorted !seen = m
       in
       List.for_all
         (fun (i, (code, k)) ->
            (match code with
             | 0 | 1 | 2 | 3 ->
               Int_table.replace t k i;
               model := (k, i) :: List.remove_assoc k !model
             | 4 | 5 | 6 ->
               Int_table.remove t k;
               model := List.remove_assoc k !model
             | _ -> ());
            Int_table.length t = List.length !model
            && Int_table.mem t k = List.mem_assoc k !model
            && Int_table.find_opt t k = List.assoc_opt k !model
            && (match Int_table.find t k with
                | v -> List.assoc_opt k !model = Some v
                | exception Not_found -> not (List.mem_assoc k !model))
            && (code < 9 || bindings_ok ()))
         (List.mapi (fun i op -> (i, op)) ops)
       && bindings_ok ())

(* Once a table holds its keys, rebinding one, looking it up, and
   removing and reinserting it allocate nothing. *)
let test_int_table_steady_state_allocates_nothing () =
  let t = Int_table.create 8 in
  for k = 0 to 63 do
    Int_table.replace t (k * 7919) k
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let k = i land 63 * 7919 in
    Int_table.replace t k i;
    if Int_table.mem t k then incr hits;
    hits := !hits + Int_table.find t k - i;
    Int_table.remove t k;
    Int_table.replace t k i
  done;
  let words = Gc.minor_words () -. before in
  check ci "every key found" 10_000 !hits;
  check ci "size unchanged" 64 (Int_table.length t);
  check (Alcotest.float 0.) "minor words over 10k rounds" 0. words

(* Values of any type, floats included, come back as stored, through
   growth and backward shifts alike. *)
let test_int_table_float_values () =
  let t = Int_table.create 1 in
  for k = 0 to 99 do
    Int_table.replace t k (float_of_int k /. 4.)
  done;
  for k = 0 to 49 do
    Int_table.remove t (2 * k)
  done;
  check (Alcotest.float 0.) "sum of odd keys / 4" 625.
    (Int_table.fold (fun _ v acc -> acc +. v) t 0.);
  check (Alcotest.option (Alcotest.float 0.)) "find_opt" (Some 24.75)
    (Int_table.find_opt t 99)

(* A removed value is unreachable from the table: a reaped PD's state
   is not kept alive by the tables that indexed it. *)
let[@inline never] bind_tracked t w slot k =
  let v = Sys.opaque_identity (ref k) in
  Weak.set w slot (Some v);
  Int_table.replace t k v

let test_int_table_remove_drops_value () =
  let t = Int_table.create 1 in
  let w = Weak.create 2 in
  for k = 0 to 20 do
    Int_table.replace t k (ref k)
  done;
  bind_tracked t w 0 21;
  bind_tracked t w 1 22;
  for k = 0 to 20 do
    if k mod 3 = 0 then Int_table.remove t k
  done;
  Int_table.remove t 21;
  Gc.full_major ();
  check cb "removed value collected" false (Weak.check w 0);
  check cb "bound value kept" true (Weak.check w 1);
  check ci "bound value still found" 22 !(Int_table.find t 22)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "engine",
    [ t "cycles conversions" test_cycles_conversions;
      t "cycles zero" test_cycles_zero;
      t "clock advance" test_clock_advance;
      t "event order" test_event_order;
      t "event fifo ties" test_event_fifo_ties;
      t "event cancel" test_event_cancel;
      t "event reschedule from callback" test_event_reschedule_from_callback;
      t "advance_until sets clock" test_advance_until_sets_clock;
      t "next deadline" test_next_deadline;
      t "idle run_due allocates nothing" test_run_due_idle_allocates_nothing;
      t "rng deterministic" test_rng_deterministic;
      t "rng split" test_rng_split_independent;
      t "rng pick" test_rng_pick;
      QCheck_alcotest.to_alcotest prop_rng_bounds;
      QCheck_alcotest.to_alcotest prop_rng_float_bounds;
      t "stats basic" test_stats_basic;
      t "stats empty" test_stats_empty;
      QCheck_alcotest.to_alcotest prop_stats_merge;
      QCheck_alcotest.to_alcotest prop_int_table_model;
      t "int table steady state allocates nothing"
        test_int_table_steady_state_allocates_nothing;
      t "remove drops the value" test_int_table_remove_drops_value;
      t "int table holds float values" test_int_table_float_values;
      t "sweep env rule" test_sweep_env_rule;
      t "sweep input order" test_sweep_input_order;
      t "sweep budget one is inline" test_sweep_budget_one_is_inline;
      t "sweep raises after join" test_sweep_raises_after_join;
      t "inline sweep runs every item" test_sweep_inline_runs_every_item;
      t "sweep handout count" test_sweep_handouts;
      t "json Line renders on one line" test_json_line;
      t "json Line children keep a parent flat" test_json_line_parent;
      t "pool runs each item exactly once" test_pool_exactly_once;
      t "pool runs nested calls inline" test_pool_nested_inline;
      t "pool is reusable after a failure" test_pool_reuse_after_failure;
      t "pool serves concurrent callers" test_pool_concurrent_callers ] )
