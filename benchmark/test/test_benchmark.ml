open Benchkit

(* {2 The layer clock, on an injected clock} *)

let fake_clock () =
  let t = ref 0 in
  (Layer_clock.create ~now:(fun () -> !t) (), fun d -> t := !t + d)

let ns lc l = Layer_clock.ns lc l

let no_layer_negative lc =
  List.iter
    (fun l ->
       Alcotest.(check bool) (Layer_clock.name l ^ " >= 0") true (ns lc l >= 0))
    Layer_clock.all

let test_nested () =
  let lc, tick = fake_clock () in
  Layer_clock.start lc;
  tick 1;
  Layer_clock.timed lc Layer_clock.kernel (fun () ->
      tick 2;
      Layer_clock.timed lc Layer_clock.guest (fun () ->
          tick 3;
          Layer_clock.timed lc Layer_clock.hyper_request (fun () -> tick 4);
          tick 5;
          (try
             Layer_clock.timed lc Layer_clock.workloads (fun () ->
                 tick 6;
                 failwith "boom")
           with Failure _ -> ());
          tick 7);
      tick 8);
  tick 9;
  Layer_clock.stop lc;
  let check name l v = Alcotest.(check int) name v (ns lc l) in
  check "residual" Layer_clock.residual 10;
  check "kernel" Layer_clock.kernel 10;
  check "guest" Layer_clock.guest 15;
  check "request" Layer_clock.hyper_request 4;
  check "workloads (left by an exception)" Layer_clock.workloads 6;
  Alcotest.(check int) "sums to the elapsed time" 45 (Layer_clock.total_ns lc);
  no_layer_negative lc

type _ Effect.t += Yield : unit Effect.t

(* Two guest fibers interleave through [suspend], the way guests yield
   at [pause]; a check hook fires in kernel context between them. The
   yield happens while a compute label is still current, as when a
   µC/OS task yields inside [Ucos.compute_pinned] and the guest's
   scheduler then pauses: on resume the scheduler, not the task, runs,
   so the time until the compute span closes is guest time. *)
let test_fibers_and_hook () =
  let lc, tick = fake_clock () in
  let kernel_ticks = ref 0 in
  let guest () =
    Layer_clock.timed lc Layer_clock.guest (fun () ->
        for _ = 1 to 2 do
          tick 3;
          Layer_clock.timed lc Layer_clock.hyper_request (fun () -> tick 5);
          Layer_clock.timed lc Layer_clock.ucos_compute (fun () ->
              tick 2;
              Layer_clock.suspend lc (fun () -> Effect.perform Yield);
              tick 6)
        done)
  in
  let ready = Queue.create () in
  let spawn f =
    Effect.Deep.match_with f ()
      { Effect.Deep.retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
             match e with
             | Yield ->
               Some
                 (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Queue.push (fun () -> Effect.Deep.continue k ()) ready)
             | _ -> None) }
  in
  Layer_clock.start lc;
  Layer_clock.timed lc Layer_clock.kernel (fun () ->
      Queue.push (fun () -> spawn guest) ready;
      Queue.push (fun () -> spawn guest) ready;
      while not (Queue.is_empty ready) do
        tick 1;
        incr kernel_ticks;
        Layer_clock.timed lc Layer_clock.check (fun () -> tick 4);
        (Queue.pop ready) ()
      done;
      tick 1;
      incr kernel_ticks);
  Layer_clock.stop lc;
  let hooks = !kernel_ticks - 1 in
  Alcotest.(check int) "guest" (2 * 2 * (3 + 6)) (ns lc Layer_clock.guest);
  Alcotest.(check int) "request" (2 * 2 * 5) (ns lc Layer_clock.hyper_request);
  Alcotest.(check int) "compute, up to the yield" (2 * 2 * 2) (ns lc Layer_clock.ucos_compute);
  Alcotest.(check int) "check, in kernel context" (4 * hooks) (ns lc Layer_clock.check);
  Alcotest.(check int) "kernel" !kernel_ticks (ns lc Layer_clock.kernel);
  Alcotest.(check int) "sums to the elapsed time"
    (36 + 20 + 8 + (4 * hooks) + !kernel_ticks)
    (Layer_clock.total_ns lc);
  no_layer_negative lc

let test_off () =
  let lc, tick = fake_clock () in
  Alcotest.(check int) "value passes through" 7
    (Layer_clock.timed lc Layer_clock.kernel (fun () -> tick 5; 7));
  Alcotest.(check int) "nothing charged while off" 0 (Layer_clock.total_ns lc)

(* {2 Host-speed slices} *)

let test_host_speed () =
  Alcotest.(check (float 0.0)) "no slices: speed 1" 1.0 (Host_speed.speed Host_speed.none);
  let mine (_ : int) = () in
  let before = Sys.signal Sys.sigprof (Sys.Signal_handle mine) in
  let v, hs = Host_speed.sampled (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 v;
  Alcotest.(check bool) "slices timed" true (Host_speed.slice_cpu hs > 0.0);
  let s = Host_speed.speed hs in
  Alcotest.(check bool) "speed positive and finite" true (s > 0.0 && Float.is_finite s);
  Alcotest.(check bool) "caller's SIGPROF handler restored" true
    (match Sys.signal Sys.sigprof before with Sys.Signal_handle f -> f == mine | _ -> false)

(* {2 Order statistics} *)

let feq = Alcotest.float 1e-12

let test_quantiles () =
  let a = [| 10; 20; 30; 40; 50 |] in
  Alcotest.(check int) "p50" 30 (Quantiles.nearest_rank a 0.5);
  Alcotest.(check int) "p99" 50 (Quantiles.nearest_rank a 0.99);
  Alcotest.(check int) "p20" 10 (Quantiles.nearest_rank a 0.2);
  Alcotest.(check int) "p0 clamps" 10 (Quantiles.nearest_rank a 0.0);
  Alcotest.check feq "odd median" 2.0 (Quantiles.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even median" 2.5 (Quantiles.median [ 4.0; 1.0; 3.0; 2.0 ]);
  (* Python: statistics.quantiles(data, n=4) *)
  let q xs (a, b, c) =
    let q1, m, q3 = Quantiles.quartiles xs in
    Alcotest.check feq "q1" a q1;
    Alcotest.check feq "median" b m;
    Alcotest.check feq "q3" c q3
  in
  q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  q [ 1.0; 2.0; 3.0; 4.0 ] (1.25, 2.5, 3.75);
  q [ 5.0; 1.0; 3.0 ] (1.0, 3.0, 5.0);
  q [ 2.0; 4.0 ] (1.5, 3.0, 4.5);
  q (List.init 10 (fun i -> float_of_int (1 lsl i))) (3.5, 24.0, 160.0);
  q [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] (1.25, 3.5, 5.75);
  Alcotest.check feq "iqr share" 1.0 (Quantiles.iqr_share [ 2.0; 4.0 ])

(* {2 The compare rule} *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.verdict_name v))
    ( = )

let runs base = List.init 10 (fun i -> base +. (0.1 *. float_of_int (i mod 3)))

let judge ?(better = Verdict.Lower) ?(bound = 0.1) parent change =
  Verdict.compare_runs ~better ~bound ~parent ~change
    ~pairs:(List.combine parent change)

let test_verdict () =
  let r = judge (runs 100.0) (runs 90.0) in
  Alcotest.check verdict "faster in every pair" Verdict.Improved r.verdict;
  Alcotest.(check int) "wins" 10 r.wins;
  Alcotest.check verdict "worse beyond the bound" Verdict.Regressed
    (judge (runs 100.0) (runs 120.0)).verdict;
  Alcotest.check verdict "within the bound" Verdict.Unchanged
    (judge (runs 100.0) (runs 100.5)).verdict;
  let wide = List.init 10 (fun i -> 70.0 +. (6.0 *. float_of_int i)) in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (judge wide (List.rev wide)).verdict;
  Alcotest.check verdict "higher is better" Verdict.Improved
    (judge ~better:Verdict.Higher (runs 0.5) (runs 0.9)).verdict;
  let eight_of_ten = List.mapi (fun i v -> if i < 2 then 100.2 else v) (runs 90.0) in
  Alcotest.check verdict "8 of 10 pair wins is no gain" Verdict.Unchanged
    (judge (runs 100.0) eight_of_ten).verdict;
  let tie = judge (runs 100.0) (runs 100.0) in
  Alcotest.(check int) "ties count for neither" 0 tie.wins;
  Alcotest.check verdict "ties" Verdict.Unchanged tie.verdict;
  Alcotest.check verdict "fewer than ten pairs claim nothing" Verdict.Unchanged
    (Verdict.compare_runs ~better:Verdict.Lower ~bound:0.1 ~parent:[ 100.0; 101.0 ]
       ~change:[ 50.0; 51.0 ] ~pairs:[ (100.0, 50.0); (101.0, 51.0) ]).verdict

(* {2 Self-checks} *)

let test_plan_rejects () =
  let fake ?(errors = []) fingerprint =
    { Instance.metrics = [ ("cpu_norm_s", 1.0) ]; fingerprint; attempted = 1; failed = 0;
      errors }
  in
  let measure spawn =
    Plan.measure ~spawn Workload.Fig8 ~size:1 ~seed:1 ~workers:2 ~end_to_end:false
      ~per_layer:true ~seconds:0.0 ~min_untraced:1
  in
  (match measure (fun spec -> fake (if spec.Instance.traced then "b" else "a")) with
   | Error [ e ] ->
     Alcotest.(check bool) "names the traced instance" true
       (String.starts_with ~prefix:"fig8-4vm instance (workers 1, traced)" e)
   | Error _ | Ok _ -> Alcotest.fail "a traced fingerprint that differs must invalidate the run");
  match measure (fun _ -> fake ~errors:[ "2 guest crashes" ] "a") with
  | Error [ e ] ->
    Alcotest.(check string) "instance error" "fig8-4vm instance (workers 2): 2 guest crashes" e
  | Error _ | Ok _ -> Alcotest.fail "an instance error must invalidate the run"

(* {2 Each workload at a tiny size passes the self-checks} *)

let smoke kind size () =
  let spawn spec = Instance.run kind ~size ~seed:7 spec in
  match
    Plan.measure ~spawn kind ~size ~seed:7 ~workers:2 ~end_to_end:true
      ~per_layer:true ~seconds:0.0 ~min_untraced:1
  with
  | Error errors -> Alcotest.fail (String.concat "; " errors)
  | Ok o ->
    Alcotest.(check bool) "jobs ran" true (o.Plan.attempted > 0);
    Alcotest.(check bool) "some jobs succeeded" true (Plan.value o "job_ok_ratio" > 0.0);
    List.iter
      (fun (m : Catalog.metric) ->
         let v = Plan.value o m.name in
         Alcotest.(check bool) (m.name ^ " is finite") true (Float.is_finite v))
      (Catalog.end_to_end @ Catalog.per_layer)

(* {2 BENCHMARK.json lists exactly what the benchmark reports} *)

let test_benchmark_json () =
  let j =
    match Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let names key = List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key j)) in
  let better (m : Catalog.metric) = match m.better with Verdict.Lower -> "lower" | Higher -> "higher" in
  Alcotest.(check (list string)) "workloads"
    (List.map Workload.name Workload.all) (names "workloads");
  Alcotest.(check (list string)) "end_to_end names"
    (List.map (fun (m : Catalog.metric) -> m.name) Catalog.end_to_end) (names "end_to_end");
  Alcotest.(check (list string)) "per_layer names"
    (List.map (fun (m : Catalog.metric) -> m.name) Catalog.per_layer) (names "per_layer");
  List.iter
    (fun m ->
       let name = Json.to_str (Json.member "name" m) in
       match Catalog.find name with
       | None -> Alcotest.fail name
       | Some c ->
         Alcotest.(check string) (name ^ " unit") c.unit_ (Json.to_str (Json.member "unit" m));
         Alcotest.(check string) (name ^ " better") (better c) (Json.to_str (Json.member "better" m));
         (match c.bound with
          | Some b -> Alcotest.check feq (name ^ " bound") b (Json.to_float (Json.member "bound" m))
          | None -> ()))
    (Json.to_list (Json.member "end_to_end" j) @ Json.to_list (Json.member "per_layer" j))

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("a", Json.Num 1.5); ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Num 3.0 ]);
        ("c", Json.Str "x\"y\\z\n") ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.of_string (Json.to_string v) = Ok v)

let () =
  Alcotest.run "benchmark"
    [ ( "layer_clock",
        [ Alcotest.test_case "nested calls" `Quick test_nested;
          Alcotest.test_case "interleaved fibers and a kernel-context hook" `Quick
            test_fibers_and_hook;
          Alcotest.test_case "off costs nothing" `Quick test_off ] );
      ("host_speed", [ Alcotest.test_case "sampled slices" `Quick test_host_speed ]);
      ("quantiles", [ Alcotest.test_case "hand-computed values" `Quick test_quantiles ]);
      ("verdict", [ Alcotest.test_case "synthetic pairs" `Quick test_verdict ]);
      ("plan", [ Alcotest.test_case "invalid runs are rejected" `Quick test_plan_rejects ]);
      ( "smoke",
        List.map
          (fun (kind, size) ->
             Alcotest.test_case (Workload.name kind) `Quick (smoke kind size))
          [ (Workload.Fig8, 8); (Ring_fleet, 16); (Trap_fleet, 16); (Churn, 800) ] );
      ( "files",
        [ Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick test_benchmark_json;
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip ] ) ]
