(* Fault-injection plane, graceful degradation, and the hardening
   fixes that ride along (PCAP latency formula, busy-race rollback,
   Ktrace overwrite semantics, kernel kill-and-reclaim). *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fault plane                                                        *)

let test_plane_disabled_and_deterministic () =
  let p = Fault_plane.create () in
  for i = 0 to 99 do
    check cb "disabled never injects" true
      (Fault_plane.draw p ~at:i ~prr:0 ~candidates:Fault_plane.all_faults
       = None)
  done;
  check ci "nothing counted" 0 (Fault_plane.total_injected p);
  let seq seed =
    let p = Fault_plane.create ~seed ~rate:0.3 () in
    List.init 200 (fun i ->
        Fault_plane.draw p ~at:i ~prr:(i mod 4)
          ~candidates:Fault_plane.all_faults)
  in
  check cb "same seed, same schedule" true (seq 11 = seq 11);
  check cb "different seed, different schedule" true (seq 11 <> seq 12);
  let p1 = Fault_plane.create ~seed:5 ~rate:1.0 () in
  for i = 0 to 49 do
    check cb "rate 1.0 always injects" true
      (Fault_plane.draw p1 ~at:i ~prr:0 ~candidates:[ Fault_plane.Ip_hang ]
       = Some Fault_plane.Ip_hang)
  done;
  check ci "all counted" 50 (Fault_plane.injected p1 Fault_plane.Ip_hang);
  check cb "empty candidates never inject" true
    (Fault_plane.draw p1 ~at:0 ~prr:0 ~candidates:[] = None)

let test_plane_log_bounded () =
  let p = Fault_plane.create ~seed:1 ~rate:1.0 () in
  for i = 0 to 4999 do
    ignore
      (Fault_plane.draw p ~at:i ~prr:0 ~candidates:[ Fault_plane.Dma_error ])
  done;
  let log = Fault_plane.drain p in
  check ci "log capped" 4096 (List.length log);
  check ci "overflow counted" (5000 - 4096) (Fault_plane.log_dropped p);
  check cb "oldest dropped, newest kept" true
    ((List.nth log (List.length log - 1)).Fault_plane.at = 4999);
  check ci "drain clears" 0 (List.length (Fault_plane.drain p));
  check ci "counters survive drain" 5000 (Fault_plane.total_injected p)

(* ------------------------------------------------------------------ *)
(* Satellite: PCAP latency derived from the throughput constant       *)

let test_pcap_latency_formula () =
  List.iter
    (fun kind ->
       let b =
         Bitstream.make ~id:1 ~kind
           ~store_addr:Address_map.bitstream_store_base
       in
       let expect =
         Cycles.of_us
           (float_of_int b.Bitstream.size_bytes
            /. (float_of_int Pcap.throughput_bytes_per_sec /. 1e6))
       in
       check ci (Task_kind.name kind) expect (Pcap.transfer_cycles b))
    [ Task_kind.Qam 4; Task_kind.Fft 256; Task_kind.Fft 8192;
      Task_kind.Fir 31 ];
  (* Pin the constant itself: 80 KB at 145 MB/s is ~565 us. *)
  check ci "145 MB/s" 145_000_000 Pcap.throughput_bytes_per_sec;
  let qam =
    Bitstream.make ~id:1 ~kind:(Task_kind.Qam 4)
      ~store_addr:Address_map.bitstream_store_base
  in
  check ci "80 KB downloads in ~565 us"
    (Cycles.of_us (float_of_int (80 * 1024) /. 145.0))
    (Pcap.transfer_cycles qam)

(* ------------------------------------------------------------------ *)
(* Manager-level recovery (no kernel in the loop)                     *)

let setup ?prr_capacities ?fault_rate ?fault_seed ?env () =
  let z = Zynq.create ?prr_capacities ?fault_rate ?fault_seed () in
  ignore (Kmem.create z);
  let hwtm = Hw_task_manager.create ?env z in
  (z, hwtm)

(* A test client: its id and the data window it requests with. *)
type client = { id : int; window : Addr.t * int }

let request hwtm c ~task ~want_irq =
  let data_base, data_len = c.window in
  Hw_task_manager.request hwtm ~client_id:c.id ~data_base ~data_len
    ~iface_vaddr:0 ~task ~want_irq

let plain_client ?(id = 7) () =
  { id; window = (Address_map.guest_phys_base 0, 65536) }

let settle ?(ms = 30.0) z =
  ignore
    (Event_queue.advance_until z.Zynq.queue
       (Clock.now z.Zynq.clock + Cycles.of_ms ms))

let test_download_retry_then_quarantine () =
  (* Every download fails: the manager must retry with backoff, give
     the allocation up at the limit, and quarantine the region. *)
  let z, hwtm = setup ~prr_capacities:[ 200 ] ~fault_rate:1.0 () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let cl = plain_client ~id:3 () in
  let r = request hwtm cl ~task:qam ~want_irq:false in
  check cb "reconfig launched" true
    (r.Hw_task_manager.status = Hyper.Hw_reconfig);
  settle z;
  check ci "download failed" 1 (Pcap.failures z.Zynq.pcap);
  check cb "region left empty" true
    ((Prr_controller.prr z.Zynq.prrc 0).Prr.state = Prr.Empty);
  (* Keep re-allocating the flaky region: each allocation exhausts its
     retry budget (backoff must elapse, each failing download must
     complete) and is given up; after quarantine_threshold consecutive
     give-ups the region is quarantined. *)
  let gave_up = ref 0 and quarantined = ref false and nretry = ref 0 in
  let rounds = ref 0 in
  while (not !quarantined) && !rounds < 80 do
    incr rounds;
    if
      Hw_task_manager.prr_client hwtm 0 = None
      && not (Pcap.busy z.Zynq.pcap)
    then
      ignore (request hwtm cl ~task:qam ~want_irq:false);
    List.iter
      (fun a ->
         match a with
         | Hw_task_manager.Act_retry _ -> incr nretry
         | Hw_task_manager.Act_gave_up _ -> incr gave_up
         | Hw_task_manager.Act_quarantine _ -> quarantined := true
         | _ -> ())
      (Hw_task_manager.health_scan hwtm);
    settle ~ms:5.0 z
  done;
  check ci "give-ups until quarantine" Hw_task_manager.quarantine_threshold
    !gave_up;
  check ci "bounded retries per allocation"
    (Hw_task_manager.reconfig_retry_limit * !gave_up)
    !nretry;
  check cb "region quarantined" true !quarantined;
  let _, consistent = Hw_task_manager.poll hwtm ~client_id:3 ~task:qam in
  check cb "client sees the loss" false consistent;
  check (Alcotest.option ci) "row unclaimed" None
    (Hw_task_manager.prr_client hwtm 0);
  (* While quarantined, the only suitable region is out of rotation. *)
  let r2 = request hwtm cl ~task:qam ~want_irq:false in
  check cb "quarantined region not allocatable" true
    (r2.Hw_task_manager.status = Hyper.Hw_busy);
  (* Heal the fabric, wait out the penalty: service resumes. *)
  Fault_plane.arm z.Zynq.faults ~seed:0 ~rate:0.0;
  settle ~ms:60.0 z;
  let unq =
    List.exists
      (function Hw_task_manager.Act_unquarantine _ -> true | _ -> false)
      (Hw_task_manager.health_scan hwtm)
  in
  check cb "quarantine expires" true unq;
  let r3 = request hwtm cl ~task:qam ~want_irq:false in
  check cb "region back in rotation" true
    (r3.Hw_task_manager.status = Hyper.Hw_reconfig);
  settle z;
  let ready, _ = Hw_task_manager.poll hwtm ~client_id:3 ~task:qam in
  check cb "healthy again" true ready

let test_retry_recovers_transient_failure () =
  (* First download fails, the fabric heals, the relaunch succeeds:
     the client keeps its allocation through the fault. *)
  let z, hwtm = setup ~prr_capacities:[ 200 ] ~fault_rate:1.0 () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let cl = plain_client ~id:4 () in
  ignore (request hwtm cl ~task:qam ~want_irq:false);
  settle z;
  Fault_plane.arm z.Zynq.faults ~seed:0 ~rate:0.0;
  let saw_retry = ref false and saw_recovered = ref false in
  for _ = 1 to 10 do
    List.iter
      (fun a ->
         match a with
         | Hw_task_manager.Act_retry _ -> saw_retry := true
         | Hw_task_manager.Act_recovered _ -> saw_recovered := true
         | _ -> ())
      (Hw_task_manager.health_scan hwtm);
    settle ~ms:5.0 z
  done;
  check cb "relaunched" true !saw_retry;
  check cb "recovered" true !saw_recovered;
  let ready, consistent = Hw_task_manager.poll hwtm ~client_id:4 ~task:qam in
  check cb "ready after recovery" true ready;
  check cb "allocation kept" true consistent;
  check ci "fault surfaced in status" 1
    (Hw_task_manager.faults hwtm ~client_id:4 ~task:qam)

let test_hung_ip_force_reset () =
  let z, hwtm = setup ~prr_capacities:[ 200 ] () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  ignore
    (request hwtm (plain_client ~id:5 ()) ~task:qam ~want_irq:false);
  settle z;
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  check cb "ready" true (prr.Prr.state = Prr.Ready);
  (* Wedge the core by hand, then step past the execution timeout. *)
  prr.Prr.state <- Prr.Busy;
  prr.Prr.busy_since <- Clock.now z.Zynq.clock;
  check ci "healthy scan sees nothing yet" 0
    (List.length (Hw_task_manager.health_scan hwtm));
  Clock.advance z.Zynq.clock (Hw_task_manager.exec_timeout + 1);
  let acts = Hw_task_manager.health_scan hwtm in
  check cb "hung core reset" true
    (List.exists
       (function Hw_task_manager.Act_reset_hung _ -> true | _ -> false)
       acts);
  check cb "region usable again" true (prr.Prr.state = Prr.Ready);
  check ci "reset counted" 1 (Hw_task_manager.hang_resets hwtm);
  check ci "fault attributed to the allocation" 1
    (Hw_task_manager.faults hwtm ~client_id:5 ~task:qam);
  (* The client's next status read reports the device fault (bit 4). *)
  check cb "status bit 4 latched" true
    (Int32.to_int (Prr.read_reg prr Prr.Reg.status) land 0b10000 <> 0)

(* Satellite: losing the PCAP race must roll the allocation back. The
   channel is idle when the manager checks it but a handler run inside
   map_iface slips a download in before the manager's own launch. *)
let test_busy_race_rolled_back () =
  let unmapped = ref 0 in
  let sneak =
    Bitstream.make ~id:99 ~kind:(Task_kind.Qam 4)
      ~store_addr:Address_map.bitstream_store_base
  in
  let z = Zynq.create ~prr_capacities:[ 200; 200 ] () in
  ignore (Kmem.create z);
  let hwtm =
    Hw_task_manager.create z
      ~env:
        { Hw_task_manager.shared_space with
          map_iface =
            (let sneaked = ref false in
             fun ~client_id ~task:_ ~vaddr:_ _ ->
               (* Client 2's first call only: grab the channel behind
                  the manager's back, as a completion handler could. *)
               if client_id = 2 && not !sneaked then begin
                 sneaked := true;
                 ignore
                   (Pcap.launch z.Zynq.pcap sneak
                      (Prr_controller.prr z.Zynq.prrc 1))
               end;
               Ok ());
          unmap_iface =
            (fun ~client_id ~task:_ ~vaddr:_ _ ->
               if client_id = 2 then incr unmapped) }
  in
  let _q4 = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let q16 = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  let c2 =
    { (plain_client ~id:2 ()) with
      window = (Address_map.guest_phys_base 1, 4096) }
  in
  let r = request hwtm c2 ~task:q16 ~want_irq:true in
  check cb "reported busy" true (r.Hw_task_manager.status = Hyper.Hw_busy);
  (* Nothing half-claimed: row, hwMMU window, IRQ and mapping undone. *)
  let prr0 = Prr_controller.prr z.Zynq.prrc 0 in
  check (Alcotest.option ci) "row unclaimed" None
    (Hw_task_manager.prr_client hwtm 0);
  check cb "window cleared" true (Hw_mmu.window prr0.Prr.hw_mmu = None);
  check cb "irq released" true (prr0.Prr.irq_index = None);
  check ci "interface demapped" 1 !unmapped;
  (* Once the channel clears, the same request goes through. *)
  settle z;
  let r2 = request hwtm c2 ~task:q16 ~want_irq:true in
  check cb "retry succeeds" true
    (r2.Hw_task_manager.status = Hyper.Hw_reconfig);
  settle z;
  let ready, _ = Hw_task_manager.poll hwtm ~client_id:2 ~task:q16 in
  check cb "configured on retry" true ready

(* Satellite: a bad interface address fails recoverably. *)
let test_map_iface_failure_is_recoverable () =
  let z, hwtm =
    setup ~prr_capacities:[ 200 ]
      ~env:
        { Hw_task_manager.shared_space with
          map_iface =
            (fun ~client_id ~task:_ ~vaddr:_ _ ->
               if client_id = 1 then Error "vaddr not page aligned" else Ok ()) }
      ()
  in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let bad = plain_client ~id:1 () in
  let r = request hwtm bad ~task:qam ~want_irq:false in
  check cb "fault, not crash" true (r.Hw_task_manager.status = Hyper.Hw_fault);
  check (Alcotest.option ci) "row unclaimed" None
    (Hw_task_manager.prr_client hwtm 0);
  let r2 =
    request hwtm (plain_client ~id:2 ()) ~task:qam
      ~want_irq:false
  in
  check cb "next client unaffected" true
    (r2.Hw_task_manager.status = Hyper.Hw_reconfig);
  ignore (settle z)

let test_bitstream_store_full () =
  let _, hwtm = setup () in
  let first = Hw_task_manager.register_task hwtm (Task_kind.Fft 256) in
  let full = ref false in
  (try
     (* 28 MB store / ~600 KB per FFT-8192: fills well within 100. *)
     for _ = 1 to 100 do
       ignore (Hw_task_manager.register_task hwtm (Task_kind.Fft 8192))
     done
   with Failure m ->
     full := true;
     check cb "store-full diagnosis" true
       (m = "Hw_task_manager: bitstream store full"));
  check cb "store eventually fills" true !full;
  (* Earlier registrations still work after the refusal. *)
  check cb "existing tasks intact" true
    (Hw_task_manager.task_kind hwtm first = Some (Task_kind.Fft 256))

(* ------------------------------------------------------------------ *)
(* Satellite: Ktrace overwrite-oldest semantics                       *)

let mark tr at text =
  Ktrace.record tr at ~category:"mark" ~name:"mark"
    [ ("text", Ktrace.Str text) ]

let test_ktrace_wraparound () =
  let tr = Ktrace.create ~capacity:4 in
  for i = 1 to 10 do
    mark tr i (string_of_int i)
  done;
  let marks =
    List.map
      (fun (e : Ktrace.event) ->
         match e.Ktrace.fields with
         | [ ("text", Ktrace.Str m) ] -> m
         | _ -> "?")
      (Ktrace.events tr)
  in
  check (Alcotest.list Alcotest.string) "newest capacity events kept"
    [ "7"; "8"; "9"; "10" ] marks;
  check ci "overwrites counted as dropped" 6 (Ktrace.dropped tr);
  check ci "total = retained + dropped" 10
    (List.length (Ktrace.events tr) + Ktrace.dropped tr)

(* ------------------------------------------------------------------ *)
(* Kernel: violation limit -> VM kill with full reclamation           *)

let test_violation_kill_reclaims_everything () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let trace = Ktrace.create ~capacity:4096 in
  Kernel.set_trace kern (Some trace);
  let qam_id = Kernel.register_hw_task kern (Task_kind.Qam 4) in
  let limit = Hw_task_manager.kill_violation_threshold in
  let evil =
    Kernel.create_vm kern ~name:"evil" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"main" ~prio:5 (fun () ->
                match
                  Hw_task_api.acquire os ~task:qam_id ~want_irq:false
                    ~data_len:4096 ()
                with
                | Error e -> failwith e
                | Ok h ->
                  (* Hammer the hwMMU until the kernel pulls the plug;
                     the kill lands at a kernel tick, after which the
                     fiber is never resumed. *)
                  for _ = 1 to limit + 4 do
                    Hw_task_api.start os h ~src_off:64 ~dst_off:(1 lsl 20)
                      ~len:16 ~param:0;
                    (match Hw_task_api.wait_done os h with
                     | `Violation | `Fault | `Done | `Reclaimed -> ());
                    Ucos.delay os 1
                  done));
         Ucos.run os)
  in
  Kernel.run kern ~until:(Cycles.of_ms 5000.0);
  check ci "VM killed" 0 (Kernel.alive_guests kern);
  check ci "kill is graceful, not a crash" 0 (Kernel.crashes kern);
  check ci "kill counted" 1 (Kernel.probe kern).Probe.fault_kill;
  (* Everything reclaimed: PRRs, hwMMU windows, pending vIRQs. *)
  for i = 0 to Prr_controller.prr_count z.Zynq.prrc - 1 do
    let prr = Prr_controller.prr z.Zynq.prrc i in
    check (Alcotest.option ci) "PRR unclaimed" None
      (Hw_task_manager.prr_client (Kernel.hwtm kern) i);
    check cb "window cleared" true (Hw_mmu.window prr.Prr.hw_mmu = None)
  done;
  (* The dead guest is reaped from the PD table entirely; its held Pd.t
     shows the Dead state and no latched vIRQs survive the kill. *)
  check (Alcotest.option ci) "dead PD reaped from the kernel" None
    (Option.map (fun pd -> pd.Pd.id) (Kernel.pd kern evil.Pd.id));
  check cb "held handle marked dead" true (evil.Pd.state = Pd.Dead);
  check ci "no latched vIRQs" 0 (Vgic.clear_pending evil.Pd.vgic);
  check cb "only the service PD remains" true
    (List.for_all (fun pd -> not (Pd.is_guest pd)) (Kernel.pds kern));
  check cb "death traced" true
    (List.exists
       (fun (e : Ktrace.event) ->
          match List.assoc_opt "reason" e.Ktrace.fields with
          | Some (Ktrace.Str reason) ->
            String.length reason >= 5
            && String.sub reason 0 5 = "hwMMU"
          | _ -> false)
       (List.filter
          (fun (e : Ktrace.event) -> e.category = "sched" && e.name = "vm-dead")
          (Ktrace.events trace)))

(* ------------------------------------------------------------------ *)
(* Kernel: the fault path in the trace                                *)

(* One traced world under injection: every fault the plane injects
   becomes a fault/inject event, and the manager's recoveries become
   fault/recover events. *)
let test_faults_traced () =
  let z = Zynq.create ~fault_seed:7 ~fault_rate:0.2 () in
  let kern = Kernel.boot z in
  let trace = Ktrace.create ~capacity:65536 in
  Kernel.set_trace kern (Some trace);
  let tasks =
    Array.of_list
      (List.map
         (fun k -> (Kernel.register_hw_task kern k, k))
         Scenario.streamable_task_set)
  in
  ignore
    (Kernel.create_vm kern ~name:"g" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         let rng = Rng.create ~seed:1 in
         ignore
           (Ucos.spawn os ~name:"t_hw" ~prio:8 (fun () ->
                for _ = 1 to 40 do
                  Ucos.delay os 2;
                  let task, kind = Rng.pick rng tasks in
                  match
                    Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
                      ()
                  with
                  | Error _ -> ()
                  | Ok h ->
                    ignore (Scenario.verified_job os rng h kind);
                    Hw_task_api.release os h
                done;
                Ucos.stop os));
         Ucos.run os));
  Kernel.run kern ~until:(Cycles.of_ms 60_000.0);
  let injected = Fault_plane.total_injected z.Zynq.faults in
  check cb "faults injected" true (injected > 0);
  check ci "every injection traced" injected
    (Ktrace.count trace ~category:"fault" ~name:"inject" ());
  check cb "recoveries traced" true
    (Ktrace.count trace ~category:"fault" ~name:"recover" () > 0)

(* ------------------------------------------------------------------ *)
(* Chaos scenario                                                     *)

(* The observability plane is on: the kernel's [fault.injected] and
   [recovery.*] counters are bumped where it records its fault/inject
   and fault/recover trace events. *)
let quick_chaos rate =
  { Chaos.default_config with
    base =
      { Scenario.default_config with requests_per_guest = 10; observe = true };
    fault_rate = rate }

let counter (r : Chaos.report) name =
  List.fold_left
    (fun n (c, v) -> if String.starts_with ~prefix:name c then n + v else n)
    0 r.Chaos.metrics.Obs.s_counters

let test_chaos_rate_zero_is_clean () =
  let r = Chaos.run ~config:(quick_chaos 0.0) ~guests:1 () in
  check ci "no injections" 0 r.Chaos.injected;
  check ci "no injection reached the kernel" 0 (counter r "fault.injected");
  check ci "no recoveries" 0 r.Chaos.recoveries;
  check ci "no quarantines" 0 r.Chaos.quarantines;
  check ci "no kills" 0 r.Chaos.fault_kills;
  check ci "no crashes" 0 r.Chaos.crashes;
  check cb "all jobs complete" true (r.Chaos.completion_rate = 1.0);
  check cb "jobs actually ran" true (r.Chaos.jobs_ok > 0)

let test_chaos_deterministic_and_recovering () =
  let cfg = quick_chaos 0.2 in
  let r = Chaos.run ~config:cfg ~guests:2 () in
  check cb "faults injected" true (r.Chaos.injected > 0);
  check ci "every injection reached the kernel" r.Chaos.injected
    (counter r "fault.injected");
  check cb "recovery machinery engaged" true
    (r.Chaos.recoveries + r.Chaos.reconfig_retries + r.Chaos.quarantines
     > 0);
  check cb "recoveries counted" true (counter r "recovery." > 0);
  check ci "kernel survives" 0 r.Chaos.crashes;
  check cb "guests still complete jobs" true (r.Chaos.jobs_ok > 0);
  let r' = Chaos.run ~config:cfg ~guests:2 () in
  check cb "bit-identical under a fixed seed" true (r = r');
  (* A different fault seed produces a different schedule. *)
  let r2 =
    Chaos.run ~config:{ cfg with fault_seed = cfg.fault_seed + 1 }
      ~guests:2 ()
  in
  check cb "seed changes the schedule" true
    (r2.Chaos.injected_by <> r.Chaos.injected_by
     || r2.Chaos.jobs_ok <> r.Chaos.jobs_ok
     || r2.Chaos.sim_ms <> r.Chaos.sim_ms)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "faults",
    [ t "plane disabled/deterministic" test_plane_disabled_and_deterministic;
      t "plane log bounded" test_plane_log_bounded;
      t "pcap latency formula" test_pcap_latency_formula;
      t "download retry then quarantine" test_download_retry_then_quarantine;
      t "retry recovers transient failure"
        test_retry_recovers_transient_failure;
      t "hung ip force reset" test_hung_ip_force_reset;
      t "busy race rolled back" test_busy_race_rolled_back;
      t "map_iface failure recoverable" test_map_iface_failure_is_recoverable;
      t "bitstream store full" test_bitstream_store_full;
      t "ktrace wraparound" test_ktrace_wraparound;
      t "violation kill reclaims everything"
        test_violation_kill_reclaims_everything;
      t "chaos rate 0 clean" test_chaos_rate_zero_is_clean;
      t "chaos deterministic and recovering"
        test_chaos_deterministic_and_recovering;
      t "faults traced" test_faults_traced ] )
