(* The observability plane (lib/obs) and its kernel integration.

   Three layers: registry unit tests (counters / gauges / histograms /
   spans / meters and their invariants), whole-system invariants on a
   chaos run with the plane enabled (span balance across VM kills and
   quarantines, monotone counters, histogram consistency), and the
   headline promise — enabling observability does not move a single
   simulated cycle (mirrors the fastpath equivalence suite).

   Also pins the Hyper ABI enumeration and the total response
   serializer that ride along in this PR. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* --- registry --- *)

let test_counters_and_gauges () =
  let t = Obs.create () in
  let c = Obs.counter t "reqs" in
  for _ = 1 to 5 do
    Obs.incr c
  done;
  check ci "counter accumulates" 5 (Obs.counter_value c);
  check ci "interned by name" 5 (Obs.counter_value (Obs.counter t "reqs"));
  let g = Obs.gauge t "level" in
  Obs.set_gauge g 7;
  Obs.set_gauge g 3;
  check ci "gauge holds the last value" 3 (Obs.gauge_value g);
  let s = Obs.snapshot t in
  check cb "snapshot lists them" true
    (List.mem_assoc "reqs" s.Obs.s_counters
     && List.mem_assoc "level" s.Obs.s_gauges)

let test_histogram_invariants () =
  check ci "bucket 0 absorbs non-positive" 0 (Obs.bucket_of 0);
  check ci "bucket of 1" 1 (Obs.bucket_of 1);
  check cb "buckets are monotone in value" true
    (Obs.bucket_of 100 <= Obs.bucket_of 10_000);
  check cb "huge values stay in range" true
    (Obs.bucket_of max_int < Obs.log2_buckets);
  let t = Obs.create () in
  let h = Obs.histogram t "lat" in
  let values = [ 0; 1; 3; 17; 17; 4096; 123_456_789 ] in
  List.iter (Obs.observe h) values;
  match (Obs.snapshot t).Obs.s_hists with
  | [ d ] ->
    check ci "count" (List.length values) d.Obs.h_count;
    check ci "total" (List.fold_left ( + ) 0 values) d.Obs.h_total;
    check Alcotest.(option int) "min" (Some 0) d.Obs.h_min;
    check Alcotest.(option int) "max" (Some 123_456_789) d.Obs.h_max;
    check ci "bucket counts sum to count" d.Obs.h_count
      (List.fold_left (fun a (_, n) -> a + n) 0 d.Obs.h_buckets)
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_spans_and_meters () =
  let t = Obs.create () in
  let misses = ref 0 in
  Obs.register_meter t "miss" (fun () -> !misses);
  let outer = Obs.open_span t ~component:"hypercall" ~key:1 ~at:100 in
  let inner = Obs.open_span t ~component:"htm_exec" ~key:1 ~at:110 in
  check ci "two spans open" 2 (Obs.open_spans t);
  (* Closing the outer span first is an imbalance. *)
  check cb "non-LIFO close raises" true
    (raises_invalid (fun () -> Obs.close_span t outer ~at:120));
  check cb "reset with open spans raises" true
    (raises_invalid (fun () -> Obs.reset t));
  misses := 3;
  Obs.close_span t inner ~at:150;
  Obs.close_span t outer ~at:200;
  check ci "all closed" 0 (Obs.open_spans t);
  let s = Obs.snapshot t in
  let cell comp =
    List.find (fun c -> c.Obs.c_component = comp) s.Obs.s_cells
  in
  let hc = cell "hypercall" and ex = cell "htm_exec" in
  check ci "outer cycles" 100 hc.Obs.c_cycles;
  check ci "inner cycles" 40 ex.Obs.c_cycles;
  check ci "outer sees the meter delta" 3
    (List.assoc "miss" hc.Obs.c_meters);
  check ci "inner sees its share" 3 (List.assoc "miss" ex.Obs.c_meters);
  check ci "keyed by pd" 1 hc.Obs.c_key;
  Obs.reset t;
  check cb "reset drops the cells" true
    ((Obs.snapshot t).Obs.s_cells = [])

let test_disabled_is_inert () =
  let t = Obs.create ~enabled:false () in
  let c = Obs.counter t "noise" in
  Obs.incr c;
  Obs.observe (Obs.histogram t "h") 42;
  Obs.set_gauge (Obs.gauge t "g") 9;
  let sp = Obs.open_span t ~component:"x" ~key:0 ~at:5 in
  Obs.close_span t sp ~at:50;
  Obs.sample t ~component:"y" ~key:1 ~cycles:99;
  check ci "counter stays zero" 0 (Obs.counter_value c);
  check cb "snapshot is the empty snapshot" true
    (Obs.snapshot t = Obs.empty_snapshot)

(* Regression: a registered-but-never-observed histogram must not leak
   the internal max_int/min_int fill sentinels into snapshots or JSON —
   it appears (on an enabled registry) with a zero count and null
   min/max. *)
let test_empty_histogram_emission () =
  let t = Obs.create () in
  ignore (Obs.histogram t "never_observed");
  (match (Obs.snapshot t).Obs.s_hists with
   | [ d ] ->
     check ci "count is zero" 0 d.Obs.h_count;
     check Alcotest.(option int) "min is None" None d.Obs.h_min;
     check Alcotest.(option int) "max is None" None d.Obs.h_max;
     check cb "no buckets" true (d.Obs.h_buckets = [])
   | _ -> Alcotest.fail "empty histogram missing from enabled snapshot");
  let json = Json_out.to_string (Obs.snapshot_to_json (Obs.snapshot t)) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check cb "JSON has null min/max" true
    (contains "\"min\": null" json && contains "\"max\": null" json);
  check cb "no sentinel leaks" true
    (not (contains (string_of_int max_int) json));
  (* The empty_snapshot invariant for disabled registries is untouched. *)
  let d = Obs.create ~enabled:false () in
  ignore (Obs.histogram d "ghost");
  check cb "disabled snapshot stays empty" true
    (Obs.snapshot d = Obs.empty_snapshot)

(* --- whole-system invariants under chaos --- *)

let observed_chaos rate =
  { Chaos.base =
      { Scenario.default_config with
        requests_per_guest = 12;
        observe = true };
    fault_rate = rate;
    fault_seed = 7 }

let test_chaos_metrics_invariants () =
  let r = Chaos.run ~config:(observed_chaos 0.2) ~guests:2 () in
  let s = r.Chaos.metrics in
  check cb "plane was on" true s.Obs.s_enabled;
  (* Span balance survives kills, quarantines and reclaims. *)
  check ci "no span left open" 0 s.Obs.s_open_spans;
  check cb "counters are non-negative" true
    (List.for_all (fun (_, v) -> v >= 0) s.Obs.s_counters);
  check cb "counters sorted by name" true
    (let names = List.map fst s.Obs.s_counters in
     names = List.sort compare names);
  let counter name =
    match List.assoc_opt name s.Obs.s_counters with Some v -> v | None -> 0
  in
  check cb "hypercalls counted" true (counter "hyper.hw_task_request" > 0);
  check cb "vm switches counted" true (counter "kernel.vm_switches" > 0);
  check cb "faults counted" true (counter "fault.injected" > 0);
  check ci "fault plane and kernel agree on injections" r.Chaos.injected
    (counter "fault.injected");
  (* Every cell is internally consistent. *)
  List.iter
    (fun c ->
       check cb "cell has calls" true (c.Obs.c_calls > 0);
       check cb "max <= total" true (c.Obs.c_max_cycles <= c.Obs.c_cycles);
       check ci "cell buckets sum to calls" c.Obs.c_calls
         (List.fold_left (fun a (_, n) -> a + n) 0 c.Obs.c_buckets))
    s.Obs.s_cells;
  (* The headline cells exist: per-VM hypercall and world-switch
     attribution, and PL-side PCAP cells. *)
  let has comp = List.exists (fun c -> c.Obs.c_component = comp) s.Obs.s_cells in
  check cb "hypercall cells" true (has "hypercall");
  check cb "world-switch cells" true (has "world_switch");
  check cb "pcap cells" true (has "pcap")

(* --- the zero-cost promise: enabling the plane moves nothing --- *)

let test_observe_is_cycle_identical () =
  let base =
    { Scenario.default_config with requests_per_guest = 15; observe = false }
  in
  let off = Scenario.run_virtualized ~config:base ~guests:2 () in
  let on =
    Scenario.run_virtualized
      ~config:{ base with observe = true }
      ~guests:2 ()
  in
  check ci "identical simulated cycles" off.Scenario.sim_cycles
    on.Scenario.sim_cycles;
  check cb "identical measurements" true
    (off.Scenario.total_us = on.Scenario.total_us
     && off.Scenario.entry_us = on.Scenario.entry_us
     && off.Scenario.reconfigs = on.Scenario.reconfigs
     && off.Scenario.jobs = on.Scenario.jobs);
  check cb "off-run snapshot is empty" true
    (off.Scenario.metrics = Obs.empty_snapshot);
  check cb "on-run snapshot is not" true
    (on.Scenario.metrics.Obs.s_cells <> [])

let test_observe_is_identical_under_chaos () =
  let on = observed_chaos 0.2 in
  let off =
    { on with Chaos.base = { on.Chaos.base with Scenario.observe = false } }
  in
  let ron = Chaos.run ~config:on ~guests:2 () in
  let roff = Chaos.run ~config:off ~guests:2 () in
  (* Same report bit for bit, metrics aside. *)
  check cb "identical chaos report" true
    ({ ron with Chaos.metrics = Obs.empty_snapshot }
     = { roff with Chaos.metrics = Obs.empty_snapshot })

(* --- Hyper ABI enumeration + total serializer (satellite) --- *)

let test_hyper_abi_enumeration () =
  check ci "25 hypercalls" Hyper.hypercall_count
    (List.length Hyper.requests);
  check (Alcotest.list ci) "ABI numbers 1..25"
    (List.init Hyper.hypercall_count (fun i -> i + 1))
    (List.map Hyper.number Hyper.requests);
  let names = List.map Hyper.name Hyper.requests in
  check ci "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- per-pCPU cell keying --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_cells_keyed_by_cpu () =
  let t = Obs.create ~cpu:2 () in
  check ci "registry carries its pCPU id" 2 (Obs.cpu t);
  let sp = Obs.open_span t ~component:"hypercall" ~key:1 ~at:100 in
  Obs.close_span t sp ~at:150;
  let s = Obs.snapshot t in
  (match s.Obs.s_cells with
   | [ c ] -> check ci "cell keyed by pCPU" 2 c.Obs.c_cpu
   | cs -> Alcotest.failf "expected one cell, got %d" (List.length cs));
  check cb "snapshot JSON carries the cpu key" true
    (contains (Json_out.to_string (Obs.snapshot_to_json s)) "\"cpu\": 2");
  (* The default registry stays on pCPU 0 — the single-kernel view. *)
  check ci "default registry is pCPU 0" 0 (Obs.cpu (Obs.create ()))

let suite =
  ( "obs",
    [ Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
      Alcotest.test_case "histogram invariants" `Quick
        test_histogram_invariants;
      Alcotest.test_case "spans and meters" `Quick test_spans_and_meters;
      Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
      Alcotest.test_case "empty histogram emission" `Quick
        test_empty_histogram_emission;
      Alcotest.test_case "chaos metrics invariants" `Quick
        test_chaos_metrics_invariants;
      Alcotest.test_case "observe is cycle-identical" `Quick
        test_observe_is_cycle_identical;
      Alcotest.test_case "observe identical under chaos" `Quick
        test_observe_is_identical_under_chaos;
      Alcotest.test_case "hyper ABI enumeration" `Quick
        test_hyper_abi_enumeration;
      Alcotest.test_case "cells keyed by pCPU" `Quick
        test_cells_keyed_by_cpu ] )
