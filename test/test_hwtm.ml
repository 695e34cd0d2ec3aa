(* Direct unit tests of the Hardware Task Manager's allocation logic
   (Fig 7), without a kernel or guests in the loop. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let setup ?prr_capacities ?partition ?env () =
  let z = Zynq.create ?prr_capacities () in
  (* The manager's footprints run in a kernel-mapped address space. *)
  ignore (Kmem.create z);
  let hwtm = Hw_task_manager.create ?partition ?env z in
  (z, hwtm)

(* A test client: its id and the data window it requests with. *)
type client = { id : int; window : Addr.t * int }

let request hwtm c ~task ~want_irq =
  let data_base, data_len = c.window in
  Hw_task_manager.request hwtm ~client_id:c.id ~data_base ~data_len
    ~iface_vaddr:0 ~task ~want_irq

let plain_client ?(id = 7) z =
  ignore z;
  { id; window = (Address_map.guest_phys_base 0, 65536) }

let settle z = ignore (Event_queue.advance_until z.Zynq.queue
                         (Clock.now z.Zynq.clock + Cycles.of_ms 30.0))

let test_register_builds_prr_lists () =
  let _, hwtm = setup () in
  let fft = Hw_task_manager.register_task hwtm (Task_kind.Fft 1024) in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  check cb "ids distinct" true (fft <> qam);
  check cb "kinds recorded" true
    (Hw_task_manager.task_kind hwtm fft = Some (Task_kind.Fft 1024));
  check (Alcotest.list ci) "both listed" [ fft; qam ]
    (Hw_task_manager.task_ids hwtm)

let test_capacity_gate () =
  (* A board whose PRRs are all too small for any FFT. *)
  let _, hwtm = setup ~prr_capacities:[ 200; 200 ] () in
  Alcotest.check_raises "no PRR can host it"
    (Failure "Hw_task_manager: no PRR can host FFT-1024") (fun () ->
        ignore (Hw_task_manager.register_task hwtm (Task_kind.Fft 1024)))

let test_request_unknown_task () =
  let z, hwtm = setup () in
  let r = request hwtm (plain_client z) ~task:42 ~want_irq:false in
  check cb "bad task" true (r.Hw_task_manager.status = Hyper.Hw_bad_task)

let test_first_request_reconfigures () =
  let z, hwtm = setup () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let r =
    request hwtm (plain_client z) ~task:qam ~want_irq:false
  in
  check cb "reconfig launched" true (r.Hw_task_manager.status = Hyper.Hw_reconfig);
  check ci "one reconfig" 1 (Hw_task_manager.reconfigs hwtm);
  check cb "pcap busy" true (Pcap.busy z.Zynq.pcap);
  settle z;
  let ready, consistent = Hw_task_manager.poll hwtm ~client_id:7 ~task:qam in
  check cb "ready after download" true ready;
  check cb "still consistent" true consistent

let test_prefers_already_loaded_prr () =
  let z, hwtm = setup () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let c1 = plain_client ~id:1 z in
  let r1 = request hwtm c1 ~task:qam ~want_irq:false in
  settle z;
  ignore (Hw_task_manager.release hwtm ~client_id:1 ~task:qam);
  (* The next client asking for the same task must get the PRR that
     already holds the bitstream — no second download. *)
  let c2 = plain_client ~id:2 z in
  let r2 = request hwtm c2 ~task:qam ~want_irq:false in
  check cb "second allocation instant" true
    (r2.Hw_task_manager.status = Hyper.Hw_success);
  check cb "same PRR reused" true (r1.Hw_task_manager.prr = r2.Hw_task_manager.prr);
  check ci "still one reconfig" 1 (Hw_task_manager.reconfigs hwtm)

let test_busy_when_pcap_occupied () =
  let z, hwtm = setup () in
  let q4 = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let q16 = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  ignore
    (request hwtm (plain_client ~id:1 z) ~task:q4
       ~want_irq:false);
  (* The second task needs a download too, but the channel is busy. *)
  let r =
    request hwtm (plain_client ~id:2 z) ~task:q16
      ~want_irq:false
  in
  check cb "busy while PCAP occupied" true
    (r.Hw_task_manager.status = Hyper.Hw_busy)

let test_busy_when_all_prrs_claimed () =
  let z, hwtm = setup ~prr_capacities:[ 200 ] () in
  let q4 = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let q16 = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  ignore
    (request hwtm (plain_client ~id:1 z) ~task:q4
       ~want_irq:false);
  settle z;
  (* Mark the region busy as if client 1's job were running: no idle
     PRR -> the paper's Busy status. *)
  prr.Prr.state <- Prr.Busy;
  let r =
    request hwtm (plain_client ~id:2 z) ~task:q16
      ~want_irq:false
  in
  check cb "no idle PRR" true (r.Hw_task_manager.status = Hyper.Hw_busy);
  prr.Prr.state <- Prr.Ready

let test_reclaim_saves_consistency_block () =
  let unmapped = ref 0 in
  let z, hwtm =
    setup ~prr_capacities:[ 200 ]
      ~env:
        { Hw_task_manager.shared_space with
          unmap_iface =
            (fun ~client_id ~task:_ ~vaddr:_ _ ->
               if client_id = 1 then incr unmapped) }
      ()
  in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let w1 = Address_map.guest_phys_base 0 in
  let c1 = { (plain_client ~id:1 z) with window = (w1, 4096) } in
  ignore (request hwtm c1 ~task:qam ~want_irq:false);
  settle z;
  (* Leave a recognisable register value to be saved. *)
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  Prr.write_reg prr Prr.Reg.len 1234l;
  check (Alcotest.option ci) "client recorded" (Some 1)
    (Hw_task_manager.prr_client hwtm 0);
  (* Client 2 steals the region (same task: no reconfig needed). *)
  let c2 =
    { (plain_client ~id:2 z) with
      window = (Address_map.guest_phys_base 1, 4096) }
  in
  let r = request hwtm c2 ~task:qam ~want_irq:false in
  check cb "instant success" true (r.Hw_task_manager.status = Hyper.Hw_success);
  check ci "old client demapped" 1 !unmapped;
  check ci "one reclaim" 1 (Hw_task_manager.reclaims hwtm);
  (* Client 1's data section carries the flag and the saved regs. *)
  check (Alcotest.int32) "inconsistent flag" 1l
    (Phys_mem.read_u32 z.Zynq.mem (w1 + Hw_task_manager.flag_offset));
  check (Alcotest.int32) "saved LEN register" 1234l
    (Phys_mem.read_u32 z.Zynq.mem
       (w1 + Hw_task_manager.saved_regs_offset + (4 * Prr.Reg.len)));
  (* The register file itself was scrubbed for the new client. *)
  check (Alcotest.int32) "registers scrubbed" 0l (Prr.read_reg prr Prr.Reg.len);
  let _, consistent1 = Hw_task_manager.poll hwtm ~client_id:1 ~task:qam in
  check cb "old client no longer holds it" false consistent1

let test_hwmmu_window_follows_client () =
  let z, hwtm = setup ~prr_capacities:[ 200 ] () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  let w1 = Address_map.guest_phys_base 0 and w2 = Address_map.guest_phys_base 1 in
  let c1 = { (plain_client ~id:1 z) with window = (w1, 4096) } in
  ignore (request hwtm c1 ~task:qam ~want_irq:false);
  settle z;
  check cb "window is client 1's" true
    (Hw_mmu.window prr.Prr.hw_mmu = Some (w1, 4096));
  let c2 = { (plain_client ~id:2 z) with window = (w2, 8192) } in
  ignore (request hwtm c2 ~task:qam ~want_irq:false);
  check cb "window reloaded for client 2" true
    (Hw_mmu.window prr.Prr.hw_mmu = Some (w2, 8192))

let test_release_requires_holder () =
  let z, hwtm = setup () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  ignore
    (request hwtm (plain_client ~id:1 z) ~task:qam
       ~want_irq:false);
  check cb "stranger cannot release" true
    (Result.is_error (Hw_task_manager.release hwtm ~client_id:9 ~task:qam));
  check cb "holder can" true
    (Result.is_ok (Hw_task_manager.release hwtm ~client_id:1 ~task:qam))

let test_pcap_client_tracked () =
  let z, hwtm = setup () in
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  ignore
    (request hwtm (plain_client ~id:5 z) ~task:qam
       ~want_irq:false);
  check (Alcotest.option ci) "completion IRQ routed to the requester"
    (Some 5)
    (Hw_task_manager.pcap_client hwtm)

(* Regression: a refused registration must leave the manager exactly
   as it was — no id burned, no table entry, no store space lost. The
   old code bumped the id counter and allocated store space before the
   suitability check, then failwith'd. *)
let test_register_failure_mutation_free () =
  let _, hwtm = setup ~prr_capacities:[ 200; 200 ] () in
  let q = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  (match Hw_task_manager.try_register_task hwtm (Task_kind.Fft 1024) with
   | Ok _ -> Alcotest.fail "FFT-1024 must not fit a 200-unit board"
   | Error m ->
     check Alcotest.string "capacity message"
       "Hw_task_manager: no PRR can host FFT-1024" m);
  check (Alcotest.list ci) "table untouched" [ q ]
    (Hw_task_manager.task_ids hwtm);
  check cb "bad kind refused without raising" true
    (Result.is_error
       (Hw_task_manager.try_register_task hwtm (Task_kind.Qam 5)));
  check (Alcotest.list ci) "table still untouched" [ q ]
    (Hw_task_manager.task_ids hwtm);
  (* Neither failure burned a task id. *)
  let q2 = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  check ci "next id sequential" (q + 1) q2

(* Regression: fill the bitstream store to refusal, then verify the
   failure mutated nothing and that destroying a task recycles its
   range. *)
let test_store_full_then_recycle () =
  let _, hwtm = setup () in
  (* SFFT-8192 bitstreams are 670 KB: the store fills after a few
     dozen registrations. *)
  let ids = ref [] in
  let full = ref None in
  while !full = None do
    match
      Hw_task_manager.try_register_task hwtm (Task_kind.Fft_stream 8192)
    with
    | Ok id -> ids := id :: !ids
    | Error m -> full := Some m
  done;
  let n = List.length !ids in
  check cb "store filled after a few dozen" true (n > 20 && n < 100);
  check (Alcotest.option Alcotest.string) "store-full error"
    (Some "Hw_task_manager: bitstream store full") !full;
  check ci "failure registered nothing" n
    (List.length (Hw_task_manager.task_ids hwtm));
  let highest = List.hd !ids in
  (* Recycle one range: registration works again, with a fresh id —
     ids are never reused, so stale loaded copies stay harmless. *)
  (match Hw_task_manager.destroy_task hwtm (List.nth !ids (n - 1)) with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match
     Hw_task_manager.try_register_task hwtm (Task_kind.Fft_stream 8192)
   with
   | Ok id -> check cb "ids never reused" true (id > highest)
   | Error m -> Alcotest.fail m)

let test_destroy_guards () =
  let z, hwtm = setup () in
  check cb "unknown destroy refused" true
    (Result.is_error (Hw_task_manager.destroy_task hwtm 999));
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  ignore
    (request hwtm (plain_client ~id:1 z) ~task:qam
       ~want_irq:false);
  settle z;
  check cb "task is held" true (Hw_task_manager.task_allocated hwtm qam);
  check cb "held task cannot be destroyed" true
    (Result.is_error (Hw_task_manager.destroy_task hwtm qam));
  ignore (Hw_task_manager.release hwtm ~client_id:1 ~task:qam);
  check cb "released task destroys" true
    (Result.is_ok (Hw_task_manager.destroy_task hwtm qam));
  check (Alcotest.list ci) "table empty" []
    (Hw_task_manager.task_ids hwtm)

let test_static_partition_denies_foreign () =
  let z, hwtm = setup ~partition:Hw_task_manager.Static () in
  check cb "mode recorded" true
    (Hw_task_manager.partition hwtm = Hw_task_manager.Static);
  let qam = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  (* Nothing pinned yet: every request fails fast. *)
  let r0 =
    request hwtm (plain_client ~id:2 z) ~task:qam
      ~want_irq:false
  in
  check cb "unpinned board denies" true
    (r0.Hw_task_manager.status = Hyper.Hw_denied);
  check Alcotest.string "denied status name" "denied"
    (Hyper.hw_status_name Hyper.Hw_denied);
  check cb "pin out of range refused" true
    (Result.is_error
       (Hw_task_manager.pin_prr hwtm ~prr_id:99 ~client_id:1));
  for i = 0 to Prr_controller.prr_count z.Zynq.prrc - 1 do
    match Hw_task_manager.pin_prr hwtm ~prr_id:i ~client_id:1 with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  done;
  check (Alcotest.option ci) "owner readable" (Some 1)
    (Hw_task_manager.pinned_client hwtm 0);
  let r2 =
    request hwtm (plain_client ~id:2 z) ~task:qam ~want_irq:false
  in
  check cb "foreign request denied" true
    (r2.Hw_task_manager.status = Hyper.Hw_denied);
  let r1 =
    request hwtm (plain_client ~id:1 z) ~task:qam ~want_irq:false
  in
  check cb "owner request proceeds" true
    (r1.Hw_task_manager.status = Hyper.Hw_reconfig)

let test_dynamic_is_default () =
  let _, hwtm = setup () in
  check cb "default mode dynamic" true
    (Hw_task_manager.partition hwtm = Hw_task_manager.Dynamic)

(* A row keeps the data window its client had at allocation: after
   the same client requests another task with another window, a
   reclaim of the first row still saves into the first window. *)
let test_reclaim_uses_allocation_window () =
  let z, hwtm = setup ~prr_capacities:[ 200; 200 ] () in
  let q4 = Hw_task_manager.register_task hwtm (Task_kind.Qam 4) in
  let q16 = Hw_task_manager.register_task hwtm (Task_kind.Qam 16) in
  let w1 = Address_map.guest_phys_base 0 in
  let w1' = w1 + 0x10000 in
  let flag w = Phys_mem.read_u32 z.Zynq.mem (w + Hw_task_manager.flag_offset) in
  ignore
    (request hwtm { id = 1; window = (w1, 4096) } ~task:q4 ~want_irq:false);
  settle z;
  ignore
    (request hwtm { id = 1; window = (w1', 4096) } ~task:q16 ~want_irq:false);
  settle z;
  check (Alcotest.option ci) "client 1 holds PRR 0" (Some 1)
    (Hw_task_manager.prr_client hwtm 0);
  let r =
    request hwtm { id = 2; window = (Address_map.guest_phys_base 1, 4096) }
      ~task:q4 ~want_irq:false
  in
  check cb "PRR 0 reclaimed" true
    (r.Hw_task_manager.status = Hyper.Hw_success
     && r.Hw_task_manager.prr = Some 0);
  check Alcotest.int32 "first window flagged" 1l (flag w1);
  check Alcotest.int32 "later window untouched" 0l (flag w1')

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "hw_task_manager",
    [ t "register builds prr lists" test_register_builds_prr_lists;
      t "capacity gate" test_capacity_gate;
      t "unknown task" test_request_unknown_task;
      t "first request reconfigures" test_first_request_reconfigures;
      t "prefers loaded prr" test_prefers_already_loaded_prr;
      t "busy when pcap occupied" test_busy_when_pcap_occupied;
      t "busy when all claimed" test_busy_when_all_prrs_claimed;
      t "reclaim consistency block" test_reclaim_saves_consistency_block;
      t "hwmmu follows client" test_hwmmu_window_follows_client;
      t "release requires holder" test_release_requires_holder;
      t "pcap client tracked" test_pcap_client_tracked;
      t "register failure mutation-free" test_register_failure_mutation_free;
      t "store full then recycle" test_store_full_then_recycle;
      t "destroy guards" test_destroy_guards;
      t "static partition denies foreign" test_static_partition_denies_foreign;
      t "dynamic is default" test_dynamic_is_default;
      t "reclaim uses the allocation window"
        test_reclaim_uses_allocation_window ] )
