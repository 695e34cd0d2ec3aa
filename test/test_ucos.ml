(* Tests for the µC/OS-II clone, run on the native port. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let with_os f =
  let sys = Port_native.create () in
  let os = Ucos.create (Port_native.port sys) in
  f (Port_native.zynq sys) os;
  Ucos.run os

let test_priority_dispatch_order () =
  let log = ref [] in
  with_os (fun _ os ->
      (* Created in scrambled order; must run in priority order. *)
      List.iter
        (fun prio ->
           ignore
             (Ucos.spawn os ~name:(string_of_int prio) ~prio (fun () ->
                  log := prio :: !log)))
        [ 12; 5; 9 ]);
  check (Alcotest.list ci) "strict priority order" [ 5; 9; 12 ]
    (List.rev !log)

let test_unique_priority () =
  let sys = Port_native.create () in
  let os = Ucos.create (Port_native.port sys) in
  ignore (Ucos.spawn os ~name:"a" ~prio:5 (fun () -> ()));
  Alcotest.check_raises "duplicate priority"
    (Invalid_argument "Ucos.spawn: priority already in use") (fun () ->
        ignore (Ucos.spawn os ~name:"b" ~prio:5 (fun () -> ())))

(* Board time in whole OS ticks, rounded to the nearest. *)
let ticks_of z =
  (Clock.now z.Zynq.clock + (Ucos.tick_interval / 2)) / Ucos.tick_interval

let test_delay_tracks_ticks () =
  let times = ref [] in
  with_os (fun z os ->
      ignore
        (Ucos.spawn os ~name:"sleeper" ~prio:5 (fun () ->
             for _ = 1 to 3 do
               Ucos.delay os 2;
               times := ticks_of z :: !times
             done)));
  (match List.rev !times with
   | [ a; b; c ] ->
     check cb "monotone 2-tick steps" true (b - a = 2 && c - b = 2)
   | _ -> Alcotest.fail "expected three wakeups")

let test_preemption_on_wakeup () =
  (* A high-priority task waking from a delay preempts the low one. *)
  let log = ref [] in
  with_os (fun z os ->
      ignore
        (Ucos.spawn os ~name:"hi" ~prio:3 (fun () ->
             Ucos.delay os 2;
             log := `Hi :: !log));
      ignore
        (Ucos.spawn os ~name:"lo" ~prio:9 (fun () ->
             (* Spin (never blocking) until well past hi's wakeup. *)
             while ticks_of z < 4 do
               Ucos.delay os 0
             done;
             log := `Lo :: !log)));
  check cb "high finished before low" true (List.rev !log = [ `Hi; `Lo ])

let test_semaphore_producer_consumer () =
  let consumed = ref 0 in
  with_os (fun _ os ->
      let sem = Ucos.sem_create os 0 in
      ignore
        (Ucos.spawn os ~name:"consumer" ~prio:4 (fun () ->
             for _ = 1 to 5 do
               match Ucos.sem_pend os sem () with
               | `Ok -> incr consumed
               | `Timeout -> failwith "unexpected timeout"
             done));
      ignore
        (Ucos.spawn os ~name:"producer" ~prio:6 (fun () ->
             for _ = 1 to 5 do
               Ucos.delay os 1;
               Ucos.sem_post os sem
             done)));
  check ci "all items consumed" 5 !consumed

let test_semaphore_timeout () =
  let result = ref `Ok in
  let after = ref 0 in
  with_os (fun z os ->
      let sem = Ucos.sem_create os 0 in
      ignore
        (Ucos.spawn os ~name:"waiter" ~prio:4 (fun () ->
             result := Ucos.sem_pend os sem ~timeout:3 ();
             after := ticks_of z)));
  check cb "timed out" true (!result = `Timeout);
  check cb "after ~3 ticks" true (!after >= 3)

let test_semaphore_initial_count () =
  let got = ref 0 in
  with_os (fun _ os ->
      let sem = Ucos.sem_create os 2 in
      ignore
        (Ucos.spawn os ~name:"taker" ~prio:4 (fun () ->
             (match Ucos.sem_pend os sem () with `Ok -> incr got | _ -> ());
             (match Ucos.sem_pend os sem () with `Ok -> incr got | _ -> ());
             match Ucos.sem_pend os sem ~timeout:2 () with
             | `Timeout -> ()
             | `Ok -> failwith "third pend should block")));
  check ci "two immediate grants" 2 !got

let test_sem_post_wakes_highest_waiter () =
  let order = ref [] in
  with_os (fun _ os ->
      let sem = Ucos.sem_create os 0 in
      let waiter prio () =
        match Ucos.sem_pend os sem () with
        | `Ok -> order := prio :: !order
        | `Timeout -> ()
      in
      ignore (Ucos.spawn os ~name:"w9" ~prio:9 (waiter 9));
      ignore (Ucos.spawn os ~name:"w5" ~prio:5 (waiter 5));
      ignore
        (Ucos.spawn os ~name:"poster" ~prio:12 (fun () ->
             Ucos.delay os 2;
             Ucos.sem_post os sem;
             Ucos.sem_post os sem)));
  check (Alcotest.list ci) "highest priority first" [ 5; 9 ] (List.rev !order)

let test_crashed_task_isolated () =
  let other_ran = ref false in
  with_os (fun _ os ->
      ignore (Ucos.spawn os ~name:"bad" ~prio:4 (fun () -> failwith "oops"));
      ignore
        (Ucos.spawn os ~name:"good" ~prio:6 (fun () ->
             Ucos.delay os 1;
             other_ran := true)));
  check cb "other task unaffected" true !other_ran

(* The crash the harness reads: the first crashed task's exception. *)
let test_crash_reported () =
  let sys = Port_native.create () in
  let os = Ucos.create (Port_native.port sys) in
  ignore (Ucos.spawn os ~name:"bad" ~prio:4 (fun () -> failwith "oops"));
  ignore (Ucos.spawn os ~name:"good" ~prio:6 (fun () -> Ucos.delay os 1));
  check cb "no crash before the run" true (Ucos.crash os = None);
  Ucos.run os;
  check cb "crash reported" true (Ucos.crash os = Some (Failure "oops"))

let test_stop () =
  let iterations = ref 0 in
  with_os (fun _ os ->
      ignore
        (Ucos.spawn os ~name:"looper" ~prio:4 (fun () ->
             while true do
               incr iterations;
               if !iterations >= 10 then Ucos.stop os;
               Ucos.delay os 0
             done)));
  check cb "stopped promptly" true (!iterations >= 10 && !iterations < 13)

let test_on_irq_dispatch () =
  (* Wire a handler to a PL source and raise it from the "fabric". *)
  let sys = Port_native.create () in
  let z = Port_native.zynq sys in
  let os = Ucos.create (Port_native.port sys) in
  let fired = ref 0 in
  ignore
    (Ucos.spawn os ~name:"irqee" ~prio:4 (fun () ->
         Ucos.on_irq os (Irq_id.pl 3) (fun () -> incr fired);
         ignore
           (Event_queue.schedule_after z.Zynq.queue (Cycles.of_ms 2.0)
              (fun () -> Gic.raise_irq z.Zynq.gic (Irq_id.pl 3)));
         while !fired = 0 do
           Ucos.delay os 1
         done));
  Ucos.run os;
  check ci "handler ran once" 1 !fired

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "ucos",
    [ t "priority dispatch order" test_priority_dispatch_order;
      t "unique priority" test_unique_priority;
      t "delay tracks ticks" test_delay_tracks_ticks;
      t "preemption on wakeup" test_preemption_on_wakeup;
      t "semaphore producer/consumer" test_semaphore_producer_consumer;
      t "semaphore timeout" test_semaphore_timeout;
      t "semaphore initial count" test_semaphore_initial_count;
      t "post wakes highest waiter" test_sem_post_wakes_highest_waiter;
      t "crashed task isolated" test_crashed_task_isolated;
      t "stop" test_stop;
      t "on_irq dispatch" test_on_irq_dispatch;
      t "crash reported" test_crash_reported ] )
