(* Invariant plane, resource-lifecycle regressions, and the soak
   engine. The lifecycle tests pin the PR's bug fixes: ASID/frame/slot
   reclamation on kill, event-queue cancel-after-fire, and vGIC
   latched-source accounting. *)

let ci = Alcotest.int
let cb = Alcotest.bool

let run_for kern d =
  Kernel.run kern ~until:(Clock.now (Kernel.zynq kern).Zynq.clock + d)

let idle_guest _genv =
  while true do
    ignore (Hyper.pause ())
  done

(* ------------------------------------------------------------------ *)
(* VM lifecycle: 1000 create/kill cycles reuse a bounded pool of       *)
(* ASIDs, save-area slots and physical windows.                        *)

let test_create_kill_1000 () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let live = Queue.create () in
  for i = 1 to 1000 do
    let pd =
      Kernel.create_vm kern
        ~name:(Printf.sprintf "cycle%d" i)
        ~priority:(1 + (i mod 3))
        idle_guest
    in
    Queue.push pd.Pd.id live;
    (* Let a few quanta elapse so some guests actually run (and one of
       them is current when its killer strikes). *)
    if i mod 7 = 0 then run_for kern (Cycles.of_us 300.0);
    (* Keep up to five alive so windows/slots recycle out of order. *)
    if Queue.length live > 5 then begin
      let victim = Queue.pop live in
      Alcotest.(check bool) "kill succeeds" true
        (Kernel.kill_vm kern victim ~reason:"lifecycle")
    end;
    if i mod 100 = 0 then
      Alcotest.(check (list string)) "invariants hold mid-churn" []
        (List.map Invariant.violation_to_string
           (Invariant.check kern ~boundary:"test"))
  done;
  Queue.iter
    (fun id -> ignore (Kernel.kill_vm kern id ~reason:"lifecycle"))
    live;
  run_for kern (Cycles.of_ms 1.0);
  Alcotest.check ci "no guests left" 0 (Kernel.alive_guests kern);
  Alcotest.check ci "all guest ASIDs returned" 0
    (Id_pool.live (Kmem.asids (Kernel.kmem kern)));
  Alcotest.(check (list string)) "invariants hold after churn" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

let test_double_kill_is_noop () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let pd = Kernel.create_vm kern ~name:"once" idle_guest in
  Alcotest.check cb "first kill" true
    (Kernel.kill_vm kern pd.Pd.id ~reason:"test");
  Alcotest.check cb "second kill reports false" false
    (Kernel.kill_vm kern pd.Pd.id ~reason:"test");
  Alcotest.check ci "asid freed once" 0
    (Id_pool.live (Kmem.asids (Kernel.kmem kern)));
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

(* ------------------------------------------------------------------ *)
(* Event queue: cancelling an event that already fired is a no-op.     *)

let test_cancel_after_fire () =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let fired = ref 0 in
  let id = Event_queue.schedule_after q 10 (fun () -> incr fired) in
  ignore (Event_queue.advance_until q 20);
  Alcotest.check ci "fired" 1 !fired;
  Alcotest.check ci "nothing pending" 0 (Event_queue.pending q);
  (* The regression: this used to decrement the live count below the
     truth, starving later runs. *)
  Event_queue.cancel q id;
  Alcotest.check ci "cancel-after-fire is a no-op" 0 (Event_queue.pending q);
  Alcotest.(check (list string)) "queue self-check clean" []
    (Event_queue.self_check q);
  let fired2 = ref 0 in
  ignore (Event_queue.schedule_after q 5 (fun () -> incr fired2));
  Alcotest.check ci "queue still counts new events" 1 (Event_queue.pending q);
  ignore (Event_queue.advance_until q 30);
  Alcotest.check ci "queue still fires" 1 !fired2

let test_cancel_self_while_firing () =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let fired = ref 0 in
  let idr = ref None in
  idr :=
    Some
      (Event_queue.schedule_after q 5 (fun () ->
           incr fired;
           (* Reentrant cancel of the very event being run. *)
           Event_queue.cancel q (Option.get !idr)));
  ignore (Event_queue.advance_until q 10);
  Alcotest.check ci "fired exactly once" 1 !fired;
  Alcotest.check ci "nothing pending" 0 (Event_queue.pending q);
  Alcotest.(check (list string)) "no orphan tombstone" []
    (Event_queue.self_check q)

(* ------------------------------------------------------------------ *)
(* vGIC: clear_pending counts latched sources.                         *)

let test_vgic_clear_pending_counts_latched () =
  let v = Vgic.create ~owner:1 in
  Vgic.register v 33;
  Vgic.register v 34;
  Vgic.enable v 33;
  Vgic.enable v 34;
  Vgic.set_pending v 33;
  Vgic.set_pending v 34;
  Vgic.set_pending v 34 (* re-latch: must not double count *);
  Alcotest.check ci "two latches raised" 2 (Vgic.raised v);
  Alcotest.check ci "two latched" 2 (Vgic.latched v);
  Alcotest.(check (list string)) "no stale arrival" [] (Vgic.self_check v);
  (* clear_pending returns the latched count. *)
  Alcotest.check ci "clear reports two sources" 2 (Vgic.clear_pending v);
  Alcotest.check ci "nothing latched" 0 (Vgic.latched v);
  Alcotest.check ci "reclaim accounted" 2 (Vgic.reclaimed v);
  Alcotest.check ci "nothing was delivered" 0 (Vgic.delivered v);
  Alcotest.(check (list string)) "conservation holds" [] (Vgic.self_check v)

let test_vgic_conservation_through_delivery () =
  let v = Vgic.create ~owner:1 in
  Vgic.register v 40;
  Vgic.enable v 40;
  Vgic.set_pending v 40;
  Alcotest.(check (list ci)) "delivered in order" [ 40 ] (Vgic.drain v);
  Alcotest.check ci "delivery counted" 1 (Vgic.delivered v);
  Alcotest.check ci "raised once" 1 (Vgic.raised v);
  Alcotest.check ci "none latched" 0 (Vgic.latched v);
  Alcotest.check ci "clearing after drain finds nothing" 0
    (Vgic.clear_pending v);
  Alcotest.(check (list string)) "conservation holds" [] (Vgic.self_check v)

(* ------------------------------------------------------------------ *)
(* Self-checks stay clean over random operation sequences: the          *)
(* allocation-free clean-path proofs never report a sound state.        *)

type eq_op =
  | Schedule of int        (* delay *)
  | Cancel of int          (* k-th scheduled id, fired or not *)
  | Self_cancel of int     (* an event that cancels itself while firing *)
  | Advance of int

let prop_event_queue_self_check =
  let op =
    QCheck2.Gen.(
      oneof
        [ map (fun d -> Schedule d) (int_range 0 50);
          map (fun k -> Cancel k) (int_bound 40);
          map (fun d -> Self_cancel d) (int_range 0 50);
          map (fun d -> Advance d) (int_range 0 60) ])
  in
  let print = function
    | Schedule d -> Printf.sprintf "schedule %d" d
    | Cancel k -> Printf.sprintf "cancel #%d" k
    | Self_cancel d -> Printf.sprintf "self-cancel %d" d
    | Advance d -> Printf.sprintf "advance %d" d
  in
  QCheck2.Test.make ~name:"event queue self-check clean on random ops"
    ~count:300 ~print:QCheck2.Print.(list print)
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
       let q = Event_queue.create (Clock.create ()) in
       let ids = ref [] in
       (* Model: an id leaves [live] when it fires or is cancelled
          before firing. *)
       let live = Hashtbl.create 16 in
       let schedule d ~self_cancel =
         let r = ref None in
         let id =
           Event_queue.schedule_after q d (fun () ->
               let id = Option.get !r in
               Hashtbl.remove live id;
               if self_cancel then Event_queue.cancel q id)
         in
         r := Some id;
         ids := id :: !ids;
         Hashtbl.replace live id ()
       in
       List.for_all
         (fun op ->
            (match op with
             | Schedule d -> schedule d ~self_cancel:false
             | Self_cancel d -> schedule d ~self_cancel:true
             | Cancel k ->
               if !ids <> [] then begin
                 let id = List.nth !ids (k mod List.length !ids) in
                 Event_queue.cancel q id;
                 Hashtbl.remove live id
               end
             | Advance d ->
               ignore (Event_queue.advance_until q (Event_queue.now q + d)));
            Event_queue.self_check q = []
            && Event_queue.pending q = Hashtbl.length live)
         ops)

type vgic_op =
  | Register of int
  | Enable of int
  | Disable of int
  | Set_pending of int
  | Drain
  | Clear_pending

let prop_vgic_self_check =
  let irq = QCheck2.Gen.int_bound 5 in
  let op =
    QCheck2.Gen.(
      frequency
        [ (1, map (fun i -> Register i) irq);
          (1, map (fun i -> Enable i) irq);
          (1, map (fun i -> Disable i) irq);
          (2, map (fun i -> Set_pending i) irq);
          (1, pure Drain);
          (1, pure Clear_pending) ])
  in
  let print = function
    | Register i -> Printf.sprintf "register %d" i
    | Enable i -> Printf.sprintf "enable %d" i
    | Disable i -> Printf.sprintf "disable %d" i
    | Set_pending i -> Printf.sprintf "set_pending %d" i
    | Drain -> "drain"
    | Clear_pending -> "clear_pending"
  in
  QCheck2.Test.make ~name:"vgic self-check clean on random ops" ~count:300
    ~print:QCheck2.Print.(list print)
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
       let v = Vgic.create ~owner:1 in
       List.for_all
         (fun op ->
            (match op with
             | Register i -> Vgic.register v i
             | Enable i -> if Vgic.registered v i then Vgic.enable v i
             | Disable i -> if Vgic.registered v i then Vgic.disable v i
             | Set_pending i -> Vgic.set_pending v i
             | Drain -> ignore (Vgic.drain v)
             | Clear_pending -> ignore (Vgic.clear_pending v));
            Vgic.self_check v = []
            && Vgic.latched v
               = Vgic.raised v - Vgic.delivered v - Vgic.reclaimed v)
         ops)

(* ------------------------------------------------------------------ *)
(* The checkers actually catch corruption.                             *)

let violation_checkers kern =
  List.map
    (fun v -> v.Invariant.checker)
    (Invariant.check kern ~boundary:"test")

(* The leak is caught the same way on a bare kernel and on a one-pCPU
   complex, whose [check_smp] is exactly [check] on kernel 0: the same
   unprefixed checker names and no cross-CPU checkers. *)
let test_checker_catches_asid_leak () =
  let bare () =
    let kern = Kernel.boot (Zynq.create ()) in
    ignore (Kernel.create_vm kern ~name:"g" idle_guest);
    (kern, fun () -> violation_checkers kern)
  in
  let one_pcpu () =
    let smp = Smp.create ~pcpus:1 ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) () in
    ignore (Smp.create_vm smp ~name:"g" idle_guest);
    ( Smp.kernel smp 0,
      fun () ->
        List.map
          (fun v -> v.Invariant.checker)
          (Invariant.check_smp smp ~boundary:"test") )
  in
  List.iter
    (fun (label, boot) ->
       let kern, checkers = boot () in
       Alcotest.(check (list string)) (label ^ ": clean before corruption") []
         (checkers ());
       ignore (Kmem.try_alloc_asid (Kernel.kmem kern) ~pd:999);
       Alcotest.(check (list string)) (label ^ ": asid checker fires")
         [ "asid_accounting" ] (checkers ()))
    [ ("kernel", bare); ("smp pcpus 1", one_pcpu) ]

let test_checker_catches_frame_leak () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  ignore (Kernel.create_vm kern ~name:"g" idle_guest);
  ignore (Frame_alloc.alloc (Kmem.allocator (Kernel.kmem kern)) 4096);
  Alcotest.check cb "frame checker fires" true
    (List.mem "frame_accounting" (violation_checkers kern))

let test_checker_catches_sched_corruption () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let pd = Kernel.create_vm kern ~name:"g" idle_guest in
  pd.Pd.state <- Pd.Blocked (* still enqueued: inconsistent *);
  Alcotest.check cb "sched checker fires" true
    (List.mem "sched" (violation_checkers kern));
  pd.Pd.state <- Pd.Runnable;
  Alcotest.(check (list string)) "clean after repair" []
    (violation_checkers kern)

(* ------------------------------------------------------------------ *)
(* Soak engine: clean, deterministic, replayable.                      *)

let stats_t =
  Alcotest.testable
    (fun ppf s ->
       Format.pp_print_string ppf (Json_out.to_string (Soak.stats_json s)))
    (fun (a : Soak.stats) b -> a = b)

let smoke_config =
  { Soak.default_config with ops = 3000; seed = 11; max_vms = 4 }

(* The outcome of a 1-shard soak. *)
let run_one cfg =
  match (Soak.run cfg).Soak.reports with
  | [ r ] -> r.Soak.outcome
  | _ -> Alcotest.fail "a 1-shard soak has one report"

let test_soak_smoke_clean () =
  match run_one smoke_config with
  | Soak.Clean stats ->
    Alcotest.check cb "did real work" true (stats.Soak.ops_done >= 3000);
    Alcotest.check cb "created VMs" true (stats.Soak.creates > 0);
    Alcotest.check cb "killed VMs" true (stats.Soak.kills > 0);
    Alcotest.check cb "invariants were evaluated" true
      (stats.Soak.checks > 0)
  | Soak.Violated { violation; shrunk; _ } ->
    Alcotest.failf "soak violated (%s) with %d-action reproducer"
      (Invariant.violation_to_string violation)
      (List.length shrunk)

let test_soak_deterministic () =
  match run_one smoke_config, run_one smoke_config with
  | Soak.Clean a, Soak.Clean b ->
    Alcotest.check stats_t "identical stats fingerprint" a b
  | _ -> Alcotest.fail "soak violated"

let test_soak_replay_deterministic () =
  let actions =
    [ Soak.A_create { profile = 0; prio = 1; gseed = 5 };
      Soak.A_probe 500;
      Soak.A_run 400;
      Soak.A_create { profile = 2; prio = 2; gseed = 9 };
      Soak.A_run 800;
      Soak.A_probe_cancel 0;
      Soak.A_kill 0;
      Soak.A_run 200;
      Soak.A_kill 0 ]
  in
  match
    Soak.replay smoke_config actions, Soak.replay smoke_config actions
  with
  | Soak.Clean a, Soak.Clean b ->
    Alcotest.check stats_t "replay is deterministic" a b;
    Alcotest.check ci "both creates applied" 2 a.Soak.creates;
    Alcotest.check ci "both kills applied" 2 a.Soak.kills;
    Alcotest.check ci "no VM survives" 0 a.Soak.live_vms
  | _ -> Alcotest.fail "replay violated"

(* ------------------------------------------------------------------ *)
(* Sharded soak: fixed decomposition, domain-count independence.       *)

(* Everything deterministic about one shard's outcome: its stats and
   which checker (if any) it violated (wall times excluded). *)
let outcome_fingerprint o =
  ( Soak.stats_of_outcome o,
    match o with
    | Soak.Clean _ -> None
    | Soak.Violated { violation; _ } -> Some violation.Invariant.checker )

(* The parallel sharded run against a serial reference: each shard's
   configuration run in turn on this domain. *)
let test_sharded_domain_independent () =
  let cfg = { smoke_config with Soak.ops = 20_000 } in
  let shards = 4 in
  let a = Soak.run ~shards cfg in
  let serial =
    List.init shards (fun shard ->
        run_one (Soak.shard_config cfg ~shards ~shard))
  in
  Alcotest.check cb "identical outcomes to the serial shards" true
    (List.map (fun (r : Soak.shard_report) -> outcome_fingerprint r.Soak.outcome)
       a.Soak.reports
     = List.map outcome_fingerprint serial);
  Alcotest.check ci "all shards ran" 4 (List.length a.Soak.reports);
  Alcotest.check cb "work actually split"
    true
    (List.for_all
       (fun (r : Soak.shard_report) -> r.Soak.shard_cfg.Soak.ops = 5_000)
       a.Soak.reports)

let test_sharded_one_shard_is_run () =
  Alcotest.check cb "1-shard config is the input" true
    (Soak.shard_config smoke_config ~shards:1 ~shard:0 = smoke_config);
  match (Soak.run ~shards:1 smoke_config).Soak.reports with
  | [ r ] ->
    Alcotest.check cb "the one shard runs the input config" true
      (r.Soak.shard_cfg = smoke_config)
  | _ -> Alcotest.fail "a 1-shard soak has one report"

let test_shard_config_split () =
  let cfg = { smoke_config with Soak.ops = 10_001 } in
  let shards = 4 in
  let cfgs =
    List.init shards (fun i -> Soak.shard_config cfg ~shards ~shard:i)
  in
  Alcotest.check ci "ops budget conserved" cfg.Soak.ops
    (List.fold_left (fun acc c -> acc + c.Soak.ops) 0 cfgs);
  let seeds = List.map (fun c -> c.Soak.seed) cfgs in
  Alcotest.check ci "derived seeds are distinct"
    (List.length seeds)
    (List.length (List.sort_uniq compare seeds));
  Alcotest.check ci "derivation is deterministic"
    (Soak.shard_seed ~seed:cfg.Soak.seed ~shard:2)
    (List.nth seeds 2)

let test_sharded_reproducer_replays_single_domain () =
  (* The reproducer a violating shard writes carries that shard's
     derived config, so it replays in one domain with no sharding
     context at all — and deterministically. *)
  let scfg =
    Soak.shard_config
      { smoke_config with Soak.ops = 8_000 }
      ~shards:4 ~shard:2
  in
  let violation =
    { Invariant.checker = "sched"; boundary = "op"; detail = "synthetic" }
  in
  let shrunk =
    [ Soak.A_create { profile = 1; prio = 1; gseed = 42 };
      Soak.A_run 600;
      Soak.A_create { profile = 2; prio = 3; gseed = 7 };
      Soak.A_run 300;
      Soak.A_kill 0 ]
  in
  let path = Filename.temp_file "soak_shard_repro" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Soak.write_reproducer path scfg violation ~shrunk;
       match Soak.load_reproducer path with
       | Error e -> Alcotest.failf "replay failed: %s" e
       | Ok (cfg, actions) ->
         match Soak.replay cfg actions, Soak.replay cfg actions with
         | Soak.Clean a, Soak.Clean b ->
           Alcotest.check stats_t "single-domain replay is deterministic" a b;
           Alcotest.check ci "both creates applied" 2 a.Soak.creates
         | _ -> Alcotest.fail "replay tripped a checker")

let test_reproducer_roundtrip () =
  let base =
    { Soak.ops = 123_456; seed = 77; max_vms = 9; check = true;
      fault_rate = 0.25; fault_seed = 3; quantum_ms = 1.5; pcpus = 1 }
  in
  let violation =
    { Invariant.checker = "sched"; boundary = "op"; detail = "synthetic" }
  in
  let shrunk =
    [ Soak.A_create { profile = 3; prio = 2; gseed = 101 };
      Soak.A_run 250;
      Soak.A_probe 4096;
      Soak.A_probe_cancel 0;
      Soak.A_kill 1 ]
  in
  let with_file f =
    let path = Filename.temp_file "soak_repro" ".txt" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  (* Floats a fixed-digit format would round: both must come back
     exactly. *)
  List.iter
    (fun cfg ->
       with_file (fun path ->
           Soak.write_reproducer path cfg violation ~shrunk;
           match Soak.load_reproducer path with
           | Error e -> Alcotest.failf "load failed: %s" e
           | Ok (cfg', actions) ->
             Alcotest.check ci "seed" cfg.Soak.seed cfg'.Soak.seed;
             Alcotest.check ci "ops" cfg.Soak.ops cfg'.Soak.ops;
             Alcotest.check ci "max vms" cfg.Soak.max_vms cfg'.Soak.max_vms;
             Alcotest.check (Alcotest.float 0.0) "fault rate"
               cfg.Soak.fault_rate cfg'.Soak.fault_rate;
             Alcotest.check ci "fault seed" cfg.Soak.fault_seed
               cfg'.Soak.fault_seed;
             Alcotest.check (Alcotest.float 0.0) "quantum"
               cfg.Soak.quantum_ms cfg'.Soak.quantum_ms;
             Alcotest.(check (list string)) "actions round-trip"
               (List.map Soak.action_to_string shrunk)
               (List.map Soak.action_to_string actions)))
    [ base; { base with fault_rate = 1e-7; quantum_ms = 1.0 /. 3.0 } ];
  (* A header value the command line would refuse is refused at load,
     before any run: a pcpus line outside [1, Smp.max_pcpus] could
     otherwise boot that many boards. *)
  List.iter
    (fun bad ->
       with_file (fun path ->
           Out_channel.with_open_text path (fun oc ->
               Printf.fprintf oc "seed 1\n%s\nactions\n" bad);
           match Soak.load_reproducer path with
           | Error e ->
             Alcotest.(check string) bad ("bad header line: " ^ bad) e
           | Ok _ -> Alcotest.failf "%S accepted" bad))
    [ "seed x"; "pcpus x"; "pcpus 0";
      Printf.sprintf "pcpus %d" (Smp.max_pcpus + 1); "pcpus 1000000000";
      "fault-rate 2.5"; "fault-rate nan"; "quantum-ms -1"; "quantum-ms 0" ];
  with_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "seed 1\npcpus %d\nactions\n" Smp.max_pcpus);
      match Soak.load_reproducer path with
      | Ok (cfg, _) -> Alcotest.check ci "max pcpus" Smp.max_pcpus cfg.Soak.pcpus
      | Error e -> Alcotest.failf "pcpus %d refused: %s" Smp.max_pcpus e)

(* [soak --replay] documents the reproducer's run, not the flags'. *)
let test_soak_replay_reports_file_config () =
  let cfg = { smoke_config with Soak.ops = 50; seed = 777; pcpus = 4 } in
  let violation =
    { Invariant.checker = "sched"; boundary = "op"; detail = "synthetic" }
  in
  let shrunk =
    [ Soak.A_create { profile = 0; prio = 1; gseed = 5 };
      Soak.A_run 300;
      Soak.A_kill 0 ]
  in
  let path = Filename.temp_file "soak_replay_doc" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Soak.write_reproducer path cfg violation ~shrunk;
       let run =
         match
           Experiment.command Experiment.registry [ "soak"; "--replay"; path ]
         with
         | Ok { Experiment.runs = [ (_, run) ]; _ } -> run
         | Ok _ | Error _ -> Alcotest.fail "soak --replay: bad argv"
       in
       match (run ()).Experiment.json with
       | Json_out.Obj kv ->
         let int k =
           match List.assoc_opt k kv with
           | Some (Json_out.Int n) -> n
           | _ -> Alcotest.failf "document has no integer %s" k
         in
         Alcotest.check ci "seed" 777 (int "seed");
         Alcotest.check ci "ops" 50 (int "ops");
         Alcotest.check ci "pcpus" 4 (int "pcpus")
       | _ -> Alcotest.fail "soak document is not an object")

let suite =
  ( "check",
    [ Alcotest.test_case "1000 VM create/kill cycles" `Quick
        test_create_kill_1000;
      Alcotest.test_case "double kill is a no-op" `Quick
        test_double_kill_is_noop;
      Alcotest.test_case "event cancel after fire" `Quick
        test_cancel_after_fire;
      Alcotest.test_case "event cancels itself while firing" `Quick
        test_cancel_self_while_firing;
      Alcotest.test_case "vgic clear_pending counts latched" `Quick
        test_vgic_clear_pending_counts_latched;
      Alcotest.test_case "vgic conservation through delivery" `Quick
        test_vgic_conservation_through_delivery;
      QCheck_alcotest.to_alcotest prop_event_queue_self_check;
      QCheck_alcotest.to_alcotest prop_vgic_self_check;
      Alcotest.test_case "checker catches ASID leak" `Quick
        test_checker_catches_asid_leak;
      Alcotest.test_case "checker catches frame leak" `Quick
        test_checker_catches_frame_leak;
      Alcotest.test_case "checker catches sched corruption" `Quick
        test_checker_catches_sched_corruption;
      Alcotest.test_case "soak smoke run is clean" `Quick
        test_soak_smoke_clean;
      Alcotest.test_case "soak is deterministic" `Quick
        test_soak_deterministic;
      Alcotest.test_case "soak replay is deterministic" `Quick
        test_soak_replay_deterministic;
      Alcotest.test_case "reproducer file round-trips" `Quick
        test_reproducer_roundtrip;
      Alcotest.test_case "sharded soak is domain-count independent" `Quick
        test_sharded_domain_independent;
      Alcotest.test_case "1-shard sharded run equals Soak.run" `Quick
        test_sharded_one_shard_is_run;
      Alcotest.test_case "shard config split conserves the budget" `Quick
        test_shard_config_split;
      Alcotest.test_case "shard reproducer replays single-domain" `Quick
        test_sharded_reproducer_replays_single_domain;
      Alcotest.test_case "soak --replay reports the file's run" `Quick
        test_soak_replay_reports_file_config ] )
