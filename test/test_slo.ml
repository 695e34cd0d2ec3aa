(* The open-loop SLO plane: percentile extraction from log2
   histograms (property-tested against exact percentiles), the
   determinism and observability-neutrality contracts of Slo.run,
   and chaos/churn integration. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* --- Obs.percentile vs exact nearest-rank percentiles --- *)

let hist_of_values values =
  let reg = Obs.create () in
  let h = Obs.histogram reg "h" in
  List.iter (Obs.observe h) values;
  match (Obs.snapshot reg).Obs.s_hists with
  | [ d ] -> d
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l)

let exact_percentile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  a.(r - 1)

(* Width of the log2 bucket holding [v] — the precision the estimate
   is allowed to lose. *)
let bucket_width v =
  let i = Obs.bucket_of v in
  if i = 0 then 0.0 else ldexp 1.0 i -. ldexp 1.0 (i - 1)

let prop_percentile_within_bucket =
  QCheck2.Test.make
    ~name:"Obs.percentile within one log2 bucket of the exact percentile"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_range 1 1_000_000))
        (float_bound_inclusive 1.0))
    (fun (values, q) ->
       let d = hist_of_values values in
       match Obs.percentile d q with
       | None -> false
       | Some est ->
         let exact = exact_percentile values q in
         Float.abs (est -. float_of_int exact) <= bucket_width exact)

let test_percentile_edges () =
  (* Empty: an interned but never-observed histogram snapshots with
     count 0 in an enabled registry; its percentiles are undefined. *)
  let reg = Obs.create () in
  let _h = Obs.histogram reg "empty" in
  (match (Obs.snapshot reg).Obs.s_hists with
   | [ d ] ->
     check Alcotest.int "empty count" 0 d.Obs.h_count;
     checkb "empty percentile" true (Obs.percentile d 0.5 = None)
   | _ -> Alcotest.fail "expected the interned histogram");
  (* Single value: min = max pins the estimate exactly. *)
  let d = hist_of_values [ 100 ] in
  List.iter
    (fun q ->
       check (Alcotest.float 1e-9) "single" 100.0
         (Option.get (Obs.percentile d q)))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* All-equal: every percentile is that value. *)
  let d = hist_of_values [ 7; 7; 7; 7; 7 ] in
  List.iter
    (fun q ->
       check (Alcotest.float 1e-9) "all-equal" 7.0
         (Option.get (Obs.percentile d q)))
    [ 0.01; 0.5; 0.999 ];
  (* v <= 0 lands in bucket 0; the estimate stays within [min, 0]. *)
  let d = hist_of_values [ -5; 0; -5; -2 ] in
  let est = Option.get (Obs.percentile d 0.5) in
  checkb "nonpositive bucket" true (est >= -5.0 && est <= 0.0);
  (* Degenerate q values clamp to the extremes. *)
  let d = hist_of_values [ 1; 1000 ] in
  checkb "q=0 clamps to rank 1" true (Option.get (Obs.percentile d 0.0) <= 2.0);
  checkb "q=1 reaches max" true (Option.get (Obs.percentile d 1.0) <= 1000.0)

(* --- the SLO engine --- *)

let small_config =
  { Slo.default_config with
    Slo.guests = 2;
    arrivals_per_guest = 12;
    mean_interarrival_us = 3000.0 }

let test_slo_deterministic () =
  let r1 = Slo.run ~config:small_config () in
  let r2 = Slo.run ~config:small_config () in
  checkb "identical reports for a fixed seed" true (r1 = r2);
  let r3 = Slo.run ~config:{ small_config with Slo.seed = 43 } () in
  checkb "a different seed changes the run" true (r1 <> r3)

let test_slo_obs_neutral () =
  let off = Slo.run ~config:small_config () in
  let on = Slo.run ~config:{ small_config with Slo.observe = true } () in
  check Alcotest.int "sim cycles identical with observability on"
    off.Slo.sim_cycles on.Slo.sim_cycles;
  checkb "board metrics populated when observing" true
    on.Slo.metrics.Obs.s_enabled;
  checkb "virq_turnaround cells present" true
    (List.exists
       (fun (c : Obs.cell) -> c.Obs.c_component = "virq_turnaround")
       on.Slo.metrics.Obs.s_cells);
  (* The harness-side measurements exist either way. *)
  List.iter
    (fun v -> checkb "percentiles measured" true (v.Slo.service_p99_us > 0.0))
    off.Slo.vms

let test_slo_serves_everything () =
  let r = Slo.run ~config:small_config () in
  check Alcotest.int "two VM rows" 2 (List.length r.Slo.vms);
  List.iter
    (fun v ->
       check Alcotest.int "all arrivals generated" 12 v.Slo.arrivals;
       check Alcotest.int "all arrivals served" 12 v.Slo.served;
       checkb "ok bounded by served" true (v.Slo.ok <= v.Slo.served);
       checkb "queue depth observed" true (v.Slo.max_depth >= 1))
    r.Slo.vms;
  checkb "victim row first" true
    ((List.hd r.Slo.vms).Slo.role = "victim");
  checkb "PRR utilisation present" true (r.Slo.prrs <> []);
  List.iter
    (fun p ->
       checkb "utilisation in [0,1]" true
         (p.Fleet.util >= 0.0 && p.Fleet.util <= 1.0))
    r.Slo.prrs;
  check Alcotest.int "no faults injected at rate 0" 0 r.Slo.injected;
  check Alcotest.int "no crashes" 0 r.Slo.crashes

let test_slo_chaos_integration () =
  let cfg = { small_config with Slo.fault_rate = 0.3 } in
  let r = Slo.run ~config:cfg () in
  checkb "faults injected" true (r.Slo.injected > 0);
  check Alcotest.int "no kernel-level crashes" 0 r.Slo.crashes;
  List.iter
    (fun v -> check Alcotest.int "queue drained despite faults" 12 v.Slo.served)
    r.Slo.vms;
  let r2 = Slo.run ~config:cfg () in
  checkb "chaos run deterministic" true (r = r2)

let test_slo_churn () =
  let cfg =
    { small_config with
      Slo.churn_kills = 1;
      arrivals_per_guest = 20;
      mean_interarrival_us = 2000.0 }
  in
  let r = Slo.run ~config:cfg () in
  check Alcotest.int "one churn kill performed" 1 r.Slo.kills;
  List.iter
    (fun v -> check Alcotest.int "queues drained across the kill" 20 v.Slo.served)
    r.Slo.vms;
  (* The victim is never churned; only aggressors lose in-flight work
     to the kill (visible as drops without acquire failures). *)
  checkb "churn run deterministic" true (r = Slo.run ~config:cfg ())

let test_slo_bursty () =
  let cfg = { small_config with Slo.process = Slo.Bursty } in
  let r = Slo.run ~config:cfg () in
  List.iter
    (fun v -> check Alcotest.int "bursty arrivals all served" 12 v.Slo.served)
    r.Slo.vms;
  (* Same seed, different process: the arrival schedule differs. *)
  checkb "bursty differs from poisson" true
    (r.Slo.vms <> (Slo.run ~config:small_config ()).Slo.vms)

let suite =
  ( "slo",
    [ QCheck_alcotest.to_alcotest prop_percentile_within_bucket;
      Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
      Alcotest.test_case "slo deterministic" `Quick test_slo_deterministic;
      Alcotest.test_case "slo observability-neutral" `Quick
        test_slo_obs_neutral;
      Alcotest.test_case "slo serves everything" `Quick
        test_slo_serves_everything;
      Alcotest.test_case "slo chaos integration" `Slow
        test_slo_chaos_integration;
      Alcotest.test_case "slo churn" `Slow test_slo_churn;
      Alcotest.test_case "slo bursty arrivals" `Quick test_slo_bursty ] )
