(* Integration tests: guests running under the Mini-NOVA kernel. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let boot ?config () =
  let z = Zynq.create () in
  (z, Kernel.boot ?config z)

let run_to_completion kern =
  Kernel.run kern ~until:(Cycles.of_ms 5000.0)

(* A VM whose body is plain effect-performing code (no uCOS). *)

let test_hello_vm () =
  let z, kern = boot () in
  ignore
    (Kernel.create_vm kern ~name:"hello" (fun _env ->
         match Hyper.hypercall (Hyper.Uart_write "hi from PL0\n") with
         | Hyper.R_unit -> ()
         | r -> failwith (Format.asprintf "%a" Hyper.pp_response r)));
  run_to_completion kern;
  check Alcotest.string "guest output" "hi from PL0\n" (Uart.contents z.Zynq.uart);
  check ci "no crashes" 0 (Kernel.crashes kern);
  check ci "guest dead" 0 (Kernel.alive_guests kern)

let test_guest_memory_access () =
  let z, kern = boot () in
  let seen = ref 0 in
  ignore
    (Kernel.create_vm kern ~name:"mem" (fun env ->
         let va = Guest_layout.user_base + 0x1000 in
         Zynq.vwrite_word env.Kernel.env_zynq ~priv:false va 0xC0FFEE;
         seen := Zynq.vread_word env.Kernel.env_zynq ~priv:false va));
  run_to_completion kern;
  check ci "guest RAM roundtrip" 0xC0FFEE !seen;
  check ci "no crashes" 0 (Kernel.crashes kern);
  ignore z

let test_guest_cannot_touch_kernel () =
  let _, kern = boot () in
  let outcome = ref "none" in
  ignore
    (Kernel.create_vm kern ~name:"evil" (fun env ->
         try
           ignore
             (Zynq.vread_word env.Kernel.env_zynq ~priv:false
                Address_map.kernel_code_base);
           outcome := "read kernel!"
         with Mmu.Fault (Mmu.Permission_fault _) -> outcome := "faulted"));
  run_to_completion kern;
  check Alcotest.string "kernel protected from PL0" "faulted" !outcome

let test_crashing_guest_is_isolated () =
  let z, kern = boot () in
  ignore
    (Kernel.create_vm kern ~name:"crasher" (fun _ -> failwith "boom"));
  ignore
    (Kernel.create_vm kern ~name:"survivor" (fun _ ->
         for _ = 1 to 5 do
           ignore (Hyper.pause ())
         done;
         ignore (Hyper.hypercall (Hyper.Uart_write "alive\n"))));
  run_to_completion kern;
  check ci "one crash recorded" 1 (Kernel.crashes kern);
  check Alcotest.string "other guest unaffected" "alive\n"
    (Uart.contents z.Zynq.uart)

let test_sd_hypercalls () =
  let _, kern = boot () in
  let got = ref Bytes.empty in
  ignore
    (Kernel.create_vm kern ~name:"sd" (fun _ ->
         let data = Bytes.make Sd_card.block_size 'q' in
         (match Hyper.hypercall (Hyper.Sd_write { block = 7; data }) with
          | Hyper.R_unit -> ()
          | _ -> failwith "write failed");
         match Hyper.hypercall (Hyper.Sd_read { block = 7 }) with
         | Hyper.R_bytes b -> got := b
         | _ -> failwith "read failed"));
  run_to_completion kern;
  check cb "block roundtrip" true (!got = Bytes.make Sd_card.block_size 'q')

let test_priv_reg_and_trap_agree () =
  let _, kern = boot () in
  let ok = ref false in
  ignore
    (Kernel.create_vm kern ~name:"regs" (fun _ ->
         let via_hyper =
           match Hyper.hypercall (Hyper.Priv_reg_read Hyper.Reg_cpuid) with
           | Hyper.R_int v -> v
           | _ -> -1
         in
         let via_trap = Hyper.und_trap (Hyper.Mrc Hyper.Reg_cpuid) in
         ok := via_hyper = via_trap && via_hyper = 0x410FC090));
  run_to_completion kern;
  check cb "MIDR via both paths" true !ok

let test_und_trap_costs_more_than_hypercall () =
  let z, kern = boot () in
  let hyper_cost = ref 0 and trap_cost = ref 0 in
  ignore
    (Kernel.create_vm kern ~name:"costs" (fun _ ->
         let t0 = Clock.now z.Zynq.clock in
         ignore (Hyper.hypercall (Hyper.Priv_reg_read Hyper.Reg_counter));
         hyper_cost := Clock.now z.Zynq.clock - t0;
         let t1 = Clock.now z.Zynq.clock in
         ignore (Hyper.und_trap (Hyper.Mrc Hyper.Reg_counter));
         trap_cost := Clock.now z.Zynq.clock - t1));
  run_to_completion kern;
  check cb "both charged" true (!hyper_cost > 0 && !trap_cost > 0)

let test_vtimer_delivers_ticks () =
  let _, kern = boot () in
  let ticks = ref 0 in
  ignore
    (Kernel.create_vm kern ~name:"ticker" (fun _ ->
         ignore (Hyper.hypercall (Hyper.Irq_enable Irq_id.private_timer));
         ignore
           (Hyper.hypercall
              (Hyper.Vtimer_config { interval = Cycles.of_ms 1.0 }));
         while !ticks < 5 do
           let r = Hyper.idle () in
           List.iter
             (fun irq -> if irq = Irq_id.private_timer then incr ticks)
             r.Hyper.virqs
         done;
         ignore (Hyper.hypercall Hyper.Vtimer_stop)));
  run_to_completion kern;
  check ci "five ticks" 5 !ticks

let test_ipc_between_vms () =
  let _, kern = boot () in
  let received = ref None in
  let receiver =
    Kernel.create_vm kern ~name:"rx" (fun _ ->
        ignore (Hyper.hypercall (Hyper.Irq_enable Kernel.ipc_doorbell_irq));
        let rec wait () =
          match Hyper.hypercall Hyper.Vm_recv with
          | Hyper.R_msg (Some (sender, payload)) ->
            received := Some (sender, payload)
          | Hyper.R_msg None ->
            ignore (Hyper.idle ());
            wait ()
          | _ -> failwith "recv failed"
        in
        wait ())
  in
  let sender =
    Kernel.create_vm kern ~name:"tx" (fun _ ->
        for _ = 1 to 3 do
          ignore (Hyper.pause ())
        done;
        match
          Hyper.hypercall
            (Hyper.Vm_send
               { dest = receiver.Pd.id; payload = [| 4; 5; 6 |] })
        with
        | Hyper.R_unit -> ()
        | r -> failwith (Format.asprintf "send: %a" Hyper.pp_response r))
  in
  run_to_completion kern;
  (match !received with
   | Some (src, payload) ->
     check ci "sender id" sender.Pd.id src;
     check cb "payload" true (payload = [| 4; 5; 6 |])
   | None -> Alcotest.fail "message never arrived")

let test_round_robin_fairness () =
  (* Two equal-priority CPU-bound VMs must share time ~equally under
     the paper's round-robin (33 ms quantum -> shrink for the test). *)
  let config =
    { Kernel.default_config with Kernel.quantum = Cycles.of_ms 2.0 }
  in
  let z, kern = boot ~config () in
  let work = [| 0; 0 |] in
  let body i (_ : Kernel.guest_env) =
    let fp =
      Exec.pin1
        { Exec.label = "spin";
          code = { Exec.base = Ucos_layout.os_code_base; len = 128 };
          reads = [];
          writes = [];
          base_cycles = 5000 }
    in
    while Clock.now z.Zynq.clock < Cycles.of_ms 60.0 do
      Exec.run_pinned z ~priv:false fp;
      work.(i) <- work.(i) + 1;
      ignore (Hyper.pause ())
    done
  in
  ignore (Kernel.create_vm kern ~name:"a" (body 0));
  ignore (Kernel.create_vm kern ~name:"b" (body 1));
  Kernel.run kern ~until:(Cycles.of_ms 80.0);
  let a = float_of_int work.(0) and b = float_of_int work.(1) in
  check cb "both ran" true (a > 0.0 && b > 0.0);
  check cb
    (Printf.sprintf "fair shares (a=%.0f b=%.0f)" a b)
    true
    (Float.abs (a -. b) /. Float.max a b < 0.2)

let test_priority_preemption () =
  (* A higher-priority VM that wakes on its virtual timer preempts the
     lower-priority CPU hog at the next chunk boundary. *)
  let z, kern = boot () in
  let rt_activations = ref 0 in
  let hog_running = ref true in
  ignore
    (Kernel.create_vm kern ~name:"rt" ~priority:3 (fun _ ->
         ignore (Hyper.hypercall (Hyper.Irq_enable Irq_id.private_timer));
         ignore
           (Hyper.hypercall
              (Hyper.Vtimer_config { interval = Cycles.of_ms 5.0 }));
         while !rt_activations < 4 do
           let r = Hyper.idle () in
           if List.mem Irq_id.private_timer r.Hyper.virqs then
             incr rt_activations
         done;
         ignore (Hyper.hypercall Hyper.Vtimer_stop)));
  ignore
    (Kernel.create_vm kern ~name:"hog" ~priority:1 (fun _ ->
         let fp =
           Exec.pin1
             { Exec.label = "hog";
               code = { Exec.base = Ucos_layout.os_code_base; len = 128 };
               reads = [];
               writes = [];
               base_cycles = 3000 }
         in
         while !hog_running do
           Exec.run_pinned z ~priv:false fp;
           ignore (Hyper.pause ())
         done));
  Kernel.run kern ~until:(Cycles.of_ms 60.0);
  hog_running := false;
  check ci "rt VM activated by timer despite the hog" 4 !rt_activations

let test_quantum_preservation () =
  (* Preempted VMs keep their remaining quantum (paper §III-D):
     exercised implicitly by the preemption test; here we check the
     bookkeeping directly. *)
  let _, kern = boot () in
  let pd =
    Kernel.create_vm kern ~name:"q" (fun _ ->
        for _ = 1 to 3 do
          ignore (Hyper.pause ())
        done)
  in
  check cb "quantum initialised" true (pd.Pd.quantum_left = pd.Pd.quantum);
  run_to_completion kern;
  check cb "vm finished" true (pd.Pd.state = Pd.Dead)

let test_guest_mode_switch_protects () =
  (* Set_guest_mode Gm_user makes domain-1 (guest kernel) pages
     inaccessible — Table II. *)
  let _, kern = boot () in
  let outcome = ref "none" in
  ignore
    (Kernel.create_vm kern ~name:"modes" (fun env ->
         let z = env.Kernel.env_zynq in
         let kva = Guest_layout.kernel_base + 0x100 in
         Zynq.vwrite_word z ~priv:false kva 99;
         ignore (Hyper.hypercall (Hyper.Set_guest_mode Hyper.Gm_user));
         (try ignore (Zynq.vread_word z ~priv:false kva) with
          | Mmu.Fault (Mmu.Domain_fault _) -> outcome := "protected");
         ignore (Hyper.hypercall (Hyper.Set_guest_mode Hyper.Gm_kernel));
         if Zynq.vread_word z ~priv:false kva = 99 && !outcome = "protected"
         then outcome := "ok"));
  run_to_completion kern;
  check Alcotest.string "DACR guest-kernel protection" "ok" !outcome

let test_map_insert_remove () =
  let _, kern = boot () in
  let ok = ref false in
  ignore
    (Kernel.create_vm kern ~name:"mapper" (fun env ->
         let z = env.Kernel.env_zynq in
         let va = Guest_layout.page_region_base + 0x40000 in
         (match
            Hyper.hypercall
              (Hyper.Map_insert
                 { vaddr = va; gphys_off = 0x0060_0000; user = true })
          with
          | Hyper.R_unit -> ()
          | r -> failwith (Format.asprintf "map: %a" Hyper.pp_response r));
         Zynq.vwrite_word z ~priv:false va 0x5A;
         let v = Zynq.vread_word z ~priv:false va in
         (* The same memory is visible through the linear alias. *)
         let alias = Guest_layout.kernel_base + 0x0060_0000 in
         let v' = Zynq.vread_word z ~priv:false alias in
         (match Hyper.hypercall (Hyper.Map_remove { vaddr = va }) with
          | Hyper.R_unit -> ()
          | _ -> failwith "unmap failed");
         let faulted =
           try
             ignore (Zynq.vread_word z ~priv:false va);
             false
           with Mmu.Fault (Mmu.Translation_fault _) -> true
         in
         ok := v = 0x5A && v' = 0x5A && faulted));
  run_to_completion kern;
  check cb "map/alias/unmap" true !ok;
  check ci "no crashes" 0 (Kernel.crashes kern)

let test_hypercalls_are_counted () =
  let _, kern = boot () in
  ignore
    (Kernel.create_vm kern ~name:"counter" (fun _ ->
         for _ = 1 to 7 do
           ignore (Hyper.hypercall (Hyper.Priv_reg_read Hyper.Reg_counter))
         done));
  run_to_completion kern;
  check ci "count" 7 (Kernel.hypercalls kern)

let test_trace_records_ordered_events () =
  let z, kern = boot () in
  ignore z;
  let tr = Ktrace.create ~capacity:256 in
  Kernel.set_trace kern (Some tr);
  ignore
    (Kernel.create_vm kern ~name:"traced" (fun _ ->
         ignore (Hyper.hypercall (Hyper.Uart_write "x"))));
  run_to_completion kern;
  let events = Ktrace.events tr in
  check cb "events recorded" true (List.length events >= 3);
  (* Timestamps are monotone. *)
  let rec mono = function
    | a :: (b :: _ as rest) ->
      check cb "monotone timestamps" true (b.Ktrace.at >= a.Ktrace.at);
      mono rest
    | _ -> ()
  in
  mono events;
  let tags = List.map (fun e -> (e.Ktrace.category, e.Ktrace.name)) events in
  check cb "has a vm switch" true (List.mem ("sched", "vm-switch") tags);
  check cb "has the hypercall" true (List.mem ("hyper", "uart_write") tags);
  check cb "has the death" true (List.mem ("sched", "vm-dead") tags);
  (* count agrees with the raw event list. *)
  check ci "count = |filter|"
    (List.length
       (List.filter (fun e -> e.Ktrace.category = "hyper") events))
    (Ktrace.count tr ~category:"hyper" ());
  check cb "count finds the hypercall" true
    (Ktrace.count tr ~category:"hyper" ~name:"uart_write" () >= 1)

let test_trace_ring_bounds () =
  let tr = Ktrace.create ~capacity:4 in
  for i = 1 to 10 do
    Ktrace.record tr i ~category:"mark" ~name:"mark"
      [ ("text", Ktrace.Str (string_of_int i)) ]
  done;
  check ci "bounded" 4 (List.length (Ktrace.events tr));
  check ci "drops counted" 6 (Ktrace.dropped tr);
  (match Ktrace.events tr with
   | { Ktrace.fields = [ ("text", Ktrace.Str m) ]; _ } :: _ ->
     check Alcotest.string "keeps the most recent" "7" m
   | _ -> Alcotest.fail "expected mark")

let test_ucos_tick_catchup_across_deschedule () =
  (* A descheduled guest receives coalesced virtual-timer interrupts;
     the port's tick recovery must keep its OS time tracking wall
     time (within one rotation of the 4 ms quantum used here). *)
  let config =
    { Kernel.default_config with Kernel.quantum = Cycles.of_ms 4.0 }
  in
  let z, kern = boot ~config () in
  let wall_ms = ref 0.0 and woke = ref false in
  ignore
    (Kernel.create_vm kern ~name:"sleeper" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"s" ~prio:5 (fun () ->
                Ucos.delay os 40;
                woke := true;
                wall_ms := Cycles.to_ms (Clock.now z.Zynq.clock);
                Ucos.stop os));
         Ucos.run os));
  (* A CPU hog competing for the other slices. *)
  ignore
    (Kernel.create_vm kern ~name:"hog" (fun genv ->
         let fp =
           Exec.pin1
             { Exec.label = "hog";
               code = { Exec.base = Ucos_layout.app_code_base; len = 256 };
               reads = [];
               writes = [];
               base_cycles = 8000 }
         in
         while Clock.now z.Zynq.clock < Cycles.of_ms 120.0 do
           Exec.run_pinned genv.Kernel.env_zynq ~priv:false fp;
           ignore (Hyper.pause ())
         done));
  Kernel.run kern ~until:(Cycles.of_ms 150.0);
  check cb "woke up" true !woke;
  check cb
    (Printf.sprintf "wall time ~40 ms despite sharing (got %.1f)" !wall_ms)
    true
    (!wall_ms >= 40.0 && !wall_ms < 50.0)

let test_two_ucos_vms_ipc () =
  let z, kern = boot () in
  ignore z;
  let got = ref [] in
  let rx =
    Kernel.create_vm kern ~name:"rx" (fun genv ->
        let os = Ucos.create (Port.paravirt genv) in
        let port = Ucos.port os in
        ignore
          (Ucos.spawn os ~name:"r" ~prio:5 (fun () ->
               let remaining = ref 3 in
               while !remaining > 0 do
                 match port.Port.recv () with
                 | Some (_, payload) ->
                   got := Array.to_list payload :: !got;
                   decr remaining
                 | None -> Ucos.delay os 1
               done;
               Ucos.stop os));
        Ucos.run os)
  in
  ignore
    (Kernel.create_vm kern ~name:"tx" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         let port = Ucos.port os in
         ignore
           (Ucos.spawn os ~name:"t" ~prio:5 (fun () ->
                for i = 1 to 3 do
                  (match port.Port.send ~dest:rx.Pd.id [| i; i * i |] with
                   | Hyper.R_unit -> ()
                   | _ -> failwith "send failed");
                  Ucos.delay os 1
                done;
                Ucos.stop os));
         Ucos.run os));
  run_to_completion kern;
  check cb "all frames arrived in order" true
    (List.rev !got = [ [ 1; 1 ]; [ 2; 4 ]; [ 3; 9 ] ])

(* Cache_flush_all after a guest store-sweeps more lines than the L1D
   holds, so most store fills evict a dirty line of the sweep. The
   dirty counts must stay exact through that: the L1D is full of dirty
   sweep lines (but for page-table lines the sweep's walks loaded), the
   L2 holds every swept line dirty, and the flush's charge grows by
   exactly one write-back and one maintenance step per extra dirty
   line. Both sweeps cover the same 17 pages, so the TLB and every
   line the hypercall path touches behave alike in the two runs; only
   the L2's extra dirty lines differ. *)
let flush_after_sweep lines =
  let _, kern = boot () in
  let seen = ref None in
  ignore
    (Kernel.create_vm kern ~name:"sweeper" (fun env ->
         let z = env.Kernel.env_zynq in
         let sweep = { Exec.base = Guest_layout.user_base; len = lines * Addr.line_size } in
         Exec.run_pinned z ~priv:false
           (Exec.pin1
              { Exec.label = "sweep"; code = { sweep with Exec.len = 0 };
                reads = []; writes = [ sweep ]; base_cycles = 0 });
         let l1d = Hierarchy.l1d z.Zynq.hier in
         let d1 = Cache.dirty_lines l1d in
         let pages = (lines * Addr.line_size / Addr.page_size) + 1 in
         let counts_ok =
           Cache.valid_lines l1d = Cache.lines l1d
           && d1 <= Cache.lines l1d
           && d1 > Cache.lines l1d - pages
           && Cache.dirty_lines (Hierarchy.l2 z.Zynq.hier) >= lines
         in
         let t0 = Clock.now z.Zynq.clock in
         let r = Hyper.hypercall Hyper.Cache_flush_all in
         seen := Some (r, counts_ok, Clock.now z.Zynq.clock - t0)));
  run_to_completion kern;
  check ci "no crashes" 0 (Kernel.crashes kern);
  match !seen with
  | None -> Alcotest.fail "guest never reached the flush"
  | Some (r, counts_ok, cycles) ->
    check cb "R_unit" true (r = Hyper.R_unit);
    check cb "dirty counts exact before the flush" true counts_ok;
    cycles

let test_cache_flush_all_after_sweep () =
  let base = flush_after_sweep 2112 in
  let more = flush_after_sweep 2176 in
  let lat = Hierarchy.latencies in
  check ci "64 more dirty lines cost 64 write-backs and maintenance steps"
    (64 * (lat.Hierarchy.writeback + lat.Hierarchy.maintenance_per_line))
    (more - base)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "kernel",
    [ t "hello vm" test_hello_vm;
      t "guest memory access" test_guest_memory_access;
      t "guest cannot touch kernel" test_guest_cannot_touch_kernel;
      t "crashing guest isolated" test_crashing_guest_is_isolated;
      t "sd hypercalls" test_sd_hypercalls;
      t "priv reg and trap agree" test_priv_reg_and_trap_agree;
      t "trap and hypercall charged" test_und_trap_costs_more_than_hypercall;
      t "vtimer ticks" test_vtimer_delivers_ticks;
      t "ipc between vms" test_ipc_between_vms;
      t "round robin fairness" test_round_robin_fairness;
      t "priority preemption" test_priority_preemption;
      t "quantum bookkeeping" test_quantum_preservation;
      t "guest mode protection" test_guest_mode_switch_protects;
      t "map insert/remove" test_map_insert_remove;
      t "hypercalls counted" test_hypercalls_are_counted;
      t "trace ordered events" test_trace_records_ordered_events;
      t "trace ring bounds" test_trace_ring_bounds;
      t "ucos tick catchup" test_ucos_tick_catchup_across_deschedule;
      t "two ucos vms ipc" test_two_ucos_vms_ipc;
      t "cache flush all after a sweep" test_cache_flush_all_after_sweep ] )
