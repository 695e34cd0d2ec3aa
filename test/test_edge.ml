(* Edge cases and failure injection across the stack: resource
   exhaustion, hostile hypercall arguments, and error surfacing. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_asid_space_exhaustion () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  (* ASIDs 2..255 are available to guests. *)
  let allocated = ref 0 in
  while Kmem.try_alloc_asid kmem ~pd:1 <> None do
    incr allocated
  done;
  check ci "254 guest ASIDs then none" 254 !allocated

let test_bitstream_store_exhaustion () =
  let z = Zynq.create () in
  ignore (Kmem.create z);
  let hwtm = Hw_task_manager.create z in
  (* FFT-8192 bitstreams are ~600 KB; the 28 MB store cannot hold an
     unbounded number of them. *)
  let registered = ref 0 in
  (try
     for _ = 1 to 100 do
       ignore (Hw_task_manager.register_task hwtm (Task_kind.Fft 8192));
       incr registered
     done
   with Failure msg ->
     check cb "store-full failure" true
       (String.length msg > 0 && String.sub msg 0 15 = "Hw_task_manager"));
  check cb "a realistic number fit first" true
    (!registered > 20 && !registered < 100)

(* Run a single-VM kernel with a body and return responses. *)
let with_vm body =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  ignore (Kernel.create_vm kern ~name:"edge" (fun _ -> body ()));
  Kernel.run kern ~until:(Cycles.of_ms 2000.0);
  kern

let is_error = function Hyper.R_error _ -> true | _ -> false

let test_hostile_hypercall_arguments () =
  let results = ref [] in
  let remember r = results := r :: !results in
  ignore
    (with_vm (fun () ->
         (* Out-of-range IRQ id. *)
         remember (Hyper.hypercall (Hyper.Irq_enable 9999));
         (* Disable an IRQ that was never registered. *)
         remember (Hyper.hypercall (Hyper.Irq_disable 61));
         (* Misaligned and out-of-region mappings. *)
         remember
           (Hyper.hypercall
              (Hyper.Map_insert
                 { vaddr = Guest_layout.page_region_base + 123;
                   gphys_off = 0; user = true }));
         remember
           (Hyper.hypercall
              (Hyper.Map_insert
                 { vaddr = Guest_layout.user_base; gphys_off = 0; user = true }));
         remember
           (Hyper.hypercall
              (Hyper.Map_insert
                 { vaddr = Guest_layout.page_region_base;
                   gphys_off = 2 * Address_map.guest_phys_size; user = true }));
         (* Unmap of something never mapped. *)
         remember
           (Hyper.hypercall
              (Hyper.Map_remove { vaddr = Guest_layout.page_region_base }));
         (* SD out of range. *)
         remember (Hyper.hypercall (Hyper.Sd_read { block = -1 }));
         remember
           (Hyper.hypercall
              (Hyper.Sd_write { block = max_int; data = Bytes.create 512 }));
         (* Zero-interval virtual timer. *)
         remember (Hyper.hypercall (Hyper.Vtimer_config { interval = 0 }));
         (* IPC to a PD that does not exist. *)
         remember (Hyper.hypercall (Hyper.Vm_send { dest = 99; payload = [||] }))));
  check ci "all ten rejected" 10
    (List.length (List.filter is_error !results))

let test_send_to_dead_vm () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let victim = Kernel.create_vm kern ~name:"victim" (fun _ -> ()) in
  let result = ref Hyper.R_unit in
  ignore
    (Kernel.create_vm kern ~name:"sender" (fun _ ->
         (* Let the victim run to completion first. *)
         for _ = 1 to 5 do
           ignore (Hyper.pause ())
         done;
         result :=
           Hyper.hypercall
             (Hyper.Vm_send { dest = victim.Pd.id; payload = [| 1 |] })));
  Kernel.run kern ~until:(Cycles.of_ms 2000.0);
  check cb "send to dead PD is an error" true (is_error !result)

let test_inbox_overflow_surfaces () =
  let z = Zynq.create () in
  (* Short quantum: the idle receiver must hand over quickly. *)
  let config =
    { Kernel.default_config with Kernel.quantum = Cycles.of_ms 0.2 }
  in
  let kern = Kernel.boot ~config z in
  let flood_done = ref false in
  let quiet =
    Kernel.create_vm kern ~name:"quiet" (fun _ ->
        (* Never receives; stays alive until the flood is over. *)
        while not !flood_done do
          ignore (Hyper.pause ())
        done)
  in
  let errors = ref 0 and sent = ref 0 in
  ignore
    (Kernel.create_vm kern ~name:"flooder" (fun _ ->
         for _ = 1 to Ipc.capacity + 4 do
           match
             Hyper.hypercall
               (Hyper.Vm_send { dest = quiet.Pd.id; payload = [| 0 |] })
           with
           | Hyper.R_unit -> incr sent
           | Hyper.R_error _ -> incr errors
           | _ -> ()
         done;
         flood_done := true));
  Kernel.run kern ~until:(Cycles.of_ms 2000.0);
  check ci "exactly the capacity fits" Ipc.capacity !sent;
  check ci "overflow rejected" 4 !errors

let test_quantum_consumed_under_preemption () =
  (* While a high-priority VM keeps preempting, the low one's quantum
     bookkeeping must decrease (preserved, not reset — §III-D). *)
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let lowpd = ref None in
  ignore
    (Kernel.create_vm kern ~name:"hi" ~priority:3 (fun _ ->
         ignore (Hyper.hypercall (Hyper.Irq_enable Irq_id.private_timer));
         ignore
           (Hyper.hypercall
              (Hyper.Vtimer_config { interval = Cycles.of_ms 2.0 }));
         for _ = 1 to 8 do
           ignore (Hyper.idle ())
         done;
         ignore (Hyper.hypercall Hyper.Vtimer_stop)));
  let low =
    Kernel.create_vm kern ~name:"lo" ~priority:1 (fun _ ->
        let fp =
          Exec.pin1
            { Exec.label = "spin";
              code = { Exec.base = Ucos_layout.app_code_base; len = 128 };
              reads = [];
              writes = [];
              base_cycles = 4000 }
        in
        while Clock.now z.Zynq.clock < Cycles.of_ms 25.0 do
          Exec.run_pinned z ~priv:false fp;
          ignore (Hyper.pause ())
        done)
  in
  lowpd := Some low;
  Kernel.run kern ~until:(Cycles.of_ms 30.0);
  check cb "quantum partially consumed and preserved" true
    (low.Pd.quantum_left > 0 && low.Pd.quantum_left < low.Pd.quantum)

let test_scenario_guard () =
  Alcotest.check_raises "zero guests rejected"
    (Invalid_argument "run_virtualized: need at least one guest") (fun () ->
        ignore (Scenario.run_virtualized ~guests:0 ()))

let test_custom_cache_geometry () =
  (* A tiny direct-mapped hierarchy still behaves. *)
  let clock = Clock.create () in
  let tiny name = { Cache.name; size_bytes = 1024; ways = 1; line_size = 32 } in
  let h =
    Hierarchy.create_custom ~l1i:(tiny "i") ~l1d:(tiny "d")
      ~l2:{ Cache.name = "l2"; size_bytes = 4096; ways = 2; line_size = 32 }
      clock
  in
  ignore (Hierarchy.access h Hierarchy.Load 0x0);
  (* Direct-mapped: same index + different tag evicts. *)
  ignore (Hierarchy.access h Hierarchy.Load 0x400);
  check cb "conflict evicted" false (Cache.probe (Hierarchy.l1d h) 0x0);
  check cb "l2 still holds both" true
    (Cache.probe (Hierarchy.l2 h) 0x0 && Cache.probe (Hierarchy.l2 h) 0x400)

let test_uart_interleaving_across_vms () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  for g = 0 to 1 do
    ignore
      (Kernel.create_vm kern ~name:(Printf.sprintf "g%d" g) (fun _ ->
           for i = 1 to 3 do
             ignore
               (Hyper.hypercall
                  (Hyper.Uart_write (Printf.sprintf "[g%d:%d]" g i)));
             ignore (Hyper.pause ())
           done))
  done;
  Kernel.run kern ~until:(Cycles.of_ms 2000.0);
  let out = Uart.contents z.Zynq.uart in
  (* Each guest's writes appear, each exactly once, in its own order. *)
  List.iter
    (fun g ->
       List.iter
         (fun i ->
            let needle = Printf.sprintf "[g%d:%d]" g i in
            let count = ref 0 in
            let nl = String.length needle in
            for p = 0 to String.length out - nl do
              if String.sub out p nl = needle then incr count
            done;
            check ci (needle ^ " appears once") 1 !count)
         [ 1; 2; 3 ])
    [ 0; 1 ]

let test_release_is_permanent () =
  (* After release, the guest's interface page must fault. *)
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let qam = Kernel.register_hw_task kern (Task_kind.Qam 4) in
  let faulted = ref false in
  ignore
    (Kernel.create_vm kern ~name:"r" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"m" ~prio:5 (fun () ->
                match Hw_task_api.acquire os ~task:qam () with
                | Error e -> failwith e
                | Ok h ->
                  Hw_task_api.release os h;
                  faulted := Hw_task_api.wait_done os h = `Reclaimed));
         Ucos.run os));
  Kernel.run kern ~until:(Cycles.of_ms 3000.0);
  check cb "interface demapped on release" true !faulted;
  ignore z

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "edge",
    [ t "asid exhaustion" test_asid_space_exhaustion;
      t "bitstream store exhaustion" test_bitstream_store_exhaustion;
      t "hostile hypercall arguments" test_hostile_hypercall_arguments;
      t "send to dead vm" test_send_to_dead_vm;
      t "inbox overflow" test_inbox_overflow_surfaces;
      t "quantum under preemption" test_quantum_consumed_under_preemption;
      t "scenario guard" test_scenario_guard;
      t "custom cache geometry" test_custom_cache_geometry;
      t "uart interleaving" test_uart_interleaving_across_vms;
      t "release is permanent" test_release_is_permanent ] )
