(* End-to-end hardware-task tests: guests using DPR accelerators under
   Mini-NOVA, including the paper's security and consistency paths. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let boot_with_tasks kinds =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let ids = List.map (Kernel.register_hw_task kern) kinds in
  (z, kern, ids)

let run kern = Kernel.run kern ~until:(Cycles.of_ms 5000.0)

let guest kern name body =
  ignore
    (Kernel.create_vm kern ~name (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore (Ucos.spawn os ~name:"main" ~prio:5 (fun () -> body os));
         Ucos.run os))

let test_fft_through_vm () =
  let z, kern, ids = boot_with_tasks [ Task_kind.Fft 256 ] in
  let fft_id = List.hd ids in
  let err = ref infinity in
  guest kern "fft" (fun os ->
      match Hw_task_api.acquire os ~task:fft_id ~want_irq:true () with
      | Error e -> failwith e
      | Ok h ->
        let re = Array.init 256 (fun i -> cos (0.07 *. float_of_int i)) in
        let im = Array.make 256 0.0 in
        (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
         | Ok (hr, hi) ->
           let sr = Array.copy re and si = Array.copy im in
           Fft.transform sr si;
           err := Float.max (Fft.max_error hr sr) (Fft.max_error hi si)
         | Error e -> failwith e);
        Hw_task_api.release os h);
  run kern;
  check ci "no crash" 0 (Kernel.crashes kern);
  check cb "hardware FFT matches software" true (!err < 0.01);
  check cb "a reconfiguration happened" true
    (Pcap.transfers z.Zynq.pcap >= 1)

let test_qam_poll_mode () =
  (* Poll-based completion (the paper's first acknowledgement method). *)
  let _, kern, ids = boot_with_tasks [ Task_kind.Qam 16 ] in
  let qam_id = List.hd ids in
  let ok = ref false in
  guest kern "qam" (fun os ->
      match Hw_task_api.acquire os ~task:qam_id ~want_irq:false () with
      | Error e -> failwith e
      | Ok h ->
        let bits = Array.init 64 (fun i -> (i / 7) land 1) in
        (match Hw_task_api.run_qam_mod os h ~order:16 ~bits with
         | Ok (i, q) ->
           ok := Qam.demodulate Qam.Qam16 ~i ~q = bits
         | Error e -> failwith e));
  run kern;
  check cb "poll-mode job verified" true !ok

let test_reclaim_between_vms () =
  (* Two VMs compete for the single FFT-capable pair of PRRs with the
     same task; verify the §IV-C consistency machinery. *)
  let z = Zynq.create ~prr_capacities:[ 1300 ] () in
  let kern = Kernel.boot z in
  let fft_id = Kernel.register_hw_task kern (Task_kind.Fft 256) in
  let flag_seen = ref false and fault_seen = ref false in
  let vm1_holds = ref false in
  guest kern "vm1" (fun os ->
      match Hw_task_api.acquire os ~task:fft_id () with
      | Error e -> failwith e
      | Ok h ->
        vm1_holds := true;
        (* Sleep long enough for vm2 to steal the PRR... *)
        Ucos.delay os 30;
        (* ...then observe the inconsistency both ways. *)
        flag_seen := Hw_task_api.inconsistent os h;
        fault_seen := Hw_task_api.wait_done os h = `Reclaimed);
  guest kern "vm2" (fun os ->
      while not !vm1_holds do
        Ucos.delay os 1
      done;
      match Hw_task_api.acquire os ~task:fft_id () with
      | Error e -> failwith e
      | Ok _ -> ());
  Kernel.run kern ~until:(Cycles.of_ms 10000.0);
  check ci "no crash" 0 (Kernel.crashes kern);
  check ci "one reclaim" 1 (Hw_task_manager.reclaims (Kernel.hwtm kern));
  check cb "state flag marks inconsistency (method 1)" true !flag_seen;
  check cb "demapped interface faults (method 2)" true !fault_seen

let test_hwmmu_blocks_escape () =
  (* A malicious guest points the job outside its data section; the
     hwMMU must refuse and the rest of memory stay untouched. *)
  let z, kern, ids = boot_with_tasks [ Task_kind.Qam 4 ] in
  let qam_id = List.hd ids in
  let refused = ref false in
  guest kern "evil" (fun os ->
      match
        Hw_task_api.acquire os ~task:qam_id ~want_irq:false ~data_len:4096 ()
      with
      | Error e -> failwith e
      | Ok h ->
        (* dst offset way beyond the 4 KB window *)
        Hw_task_api.start os h ~src_off:64 ~dst_off:(1 lsl 20) ~len:16
          ~param:0;
        (match Hw_task_api.wait_done os h with
         | `Violation -> refused := true
         | `Done | `Fault | `Reclaimed -> ()));
  run kern;
  check cb "hwMMU refused the DMA" true !refused;
  let v = ref 0 in
  for i = 0 to Prr_controller.prr_count z.Zynq.prrc - 1 do
    v := !v + Hw_mmu.violations (Prr_controller.prr z.Zynq.prrc i).Prr.hw_mmu
  done;
  check cb "violation recorded" true (!v > 0);
  check ci "no DMA job ran" 0 (Prr_controller.jobs_completed z.Zynq.prrc)

let test_unknown_task_rejected () =
  let _, kern, _ = boot_with_tasks [ Task_kind.Qam 4 ] in
  let result = ref (Ok ()) in
  guest kern "lost" (fun os ->
      match Hw_task_api.acquire os ~task:999 () with
      | Error e -> result := Error e
      | Ok _ -> ());
  run kern;
  check cb "bad task id surfaces an error" true (Result.is_error !result)

let test_irq_completion_mode () =
  let _, kern, ids = boot_with_tasks [ Task_kind.Qam 64 ] in
  let qam_id = List.hd ids in
  let got_irq_handle = ref false and job_ok = ref false in
  guest kern "irqy" (fun os ->
      match Hw_task_api.acquire os ~task:qam_id ~want_irq:true () with
      | Error e -> failwith e
      | Ok h ->
        got_irq_handle := h.Hw_task_api.irq <> None;
        let bits = Array.init 60 (fun i -> i land 1) in
        (match Hw_task_api.run_qam_mod os h ~order:64 ~bits with
         | Ok (i, q) -> job_ok := Qam.demodulate Qam.Qam64 ~i ~q = bits
         | Error e -> failwith e));
  run kern;
  check cb "PL irq attached" true !got_irq_handle;
  check cb "irq-mode job verified" true !job_ok

let test_release_frees_prr () =
  let _, kern, ids = boot_with_tasks [ Task_kind.Qam 4; Task_kind.Qam 16 ] in
  let a, b = (List.nth ids 0, List.nth ids 1) in
  let second_ok = ref false in
  guest kern "cycle" (fun os ->
      (* Acquire/release several times; PRRs must not leak. *)
      for _ = 1 to 6 do
        match Hw_task_api.acquire os ~task:a () with
        | Error e -> failwith e
        | Ok h -> Hw_task_api.release os h
      done;
      match Hw_task_api.acquire os ~task:b () with
      | Error e -> failwith e
      | Ok h ->
        second_ok := true;
        Hw_task_api.release os h);
  run kern;
  check cb "no PRR leak across acquire/release cycles" true !second_ok;
  check ci "no crash" 0 (Kernel.crashes kern)

let test_acquire_is_idempotent () =
  let _, kern, ids = boot_with_tasks [ Task_kind.Qam 4 ] in
  let id = List.hd ids in
  let prrs = ref [] in
  guest kern "twice" (fun os ->
      (match Hw_task_api.acquire os ~task:id () with
       | Ok h -> prrs := h.Hw_task_api.prr :: !prrs
       | Error e -> failwith e);
      match Hw_task_api.acquire os ~task:id () with
      | Ok h -> prrs := h.Hw_task_api.prr :: !prrs
      | Error e -> failwith e);
  run kern;
  (match !prrs with
   | [ Some p2; Some p1 ] -> check ci "same PRR handed back" p1 p2
   | _ -> Alcotest.fail "expected two successful acquisitions")

let test_fir_through_vm () =
  let _, kern, ids = boot_with_tasks [ Task_kind.Fir 63 ] in
  let fir_id = List.hd ids in
  let err = ref infinity in
  guest kern "fir" (fun os ->
      match Hw_task_api.acquire os ~task:fir_id ~want_irq:true () with
      | Error e -> failwith e
      | Ok h ->
        let n = 200 in
        let x =
          Array.init n (fun i ->
              sin (2.0 *. Float.pi *. 0.03 *. float_of_int i)
              +. sin (2.0 *. Float.pi *. 0.42 *. float_of_int i))
        in
        (match
           Hw_task_api.run_fir os h ~response:(Fir.Lowpass 0.125) ~samples:x
         with
         | Ok y ->
           let hcoef = Fir.design ~taps:63 (Fir.Lowpass 0.125) in
           let expect =
             Fir.apply hcoef
               (Array.map
                  (fun v -> Int32.float_of_bits (Int32.bits_of_float v))
                  x)
           in
           let e = ref 0.0 in
           Array.iteri
             (fun i v -> e := Float.max !e (Float.abs (v -. expect.(i))))
             y;
           err := !e
         | Error e -> failwith e);
        Hw_task_api.release os h);
  run kern;
  check cb "hardware FIR matches software" true (!err < 1e-3)

let test_native_and_virt_results_agree () =
  (* The same workload gives the same functional output natively and
     under virtualization (timing differs, data must not). *)
  let run_one make_port =
    let result = ref [||] in
    make_port (fun os fft_id ->
        match Hw_task_api.acquire os ~task:fft_id () with
        | Error e -> failwith e
        | Ok h ->
          let re = Array.init 256 (fun i -> sin (0.11 *. float_of_int i)) in
          let im = Array.make 256 0.0 in
          (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
           | Ok (hr, _) -> result := hr
           | Error e -> failwith e));
    !result
  in
  let native f =
    let sys = Port_native.create () in
    let id = Port_native.register_hw_task sys (Task_kind.Fft 256) in
    Port_native.run sys (fun port ->
        let os = Ucos.create port in
        ignore (Ucos.spawn os ~name:"m" ~prio:5 (fun () -> f os id));
        Ucos.run os)
  in
  let virt f =
    let z = Zynq.create () in
    let kern = Kernel.boot z in
    let id = Kernel.register_hw_task kern (Task_kind.Fft 256) in
    guest kern "vm" (fun os -> f os id);
    run kern
  in
  let rn = run_one native and rv = run_one virt in
  check cb "identical spectra" true (rn = rv && Array.length rn = 256)

let test_stream_fft_fastpath_identity () =
  (* The event-queue fastpath must not change a single cycle of the
     streaming-FFT pipeline — run the same SFFT job end
     to end with the fastpath on and off and compare final clocks. *)
  let run_one ~fast =
    let z = Zynq.create () in
    if not fast then Fastpath.set_enabled z.Zynq.fast false;
    let kern = Kernel.boot z in
    let id = Kernel.register_hw_task kern (Task_kind.Fft_stream 256) in
    guest kern "sfft" (fun os ->
        match Hw_task_api.acquire os ~task:id ~want_irq:true () with
        | Error e -> failwith e
        | Ok h ->
          let re = Array.init 256 (fun i -> cos (0.05 *. float_of_int i)) in
          let im = Array.make 256 0.0 in
          (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
           | Ok _ -> ()
           | Error e -> failwith e);
          Hw_task_api.release os h);
    run kern;
    (Clock.now z.Zynq.clock : Cycles.t)
  in
  let cf = run_one ~fast:true and cs = run_one ~fast:false in
  check cb "board made progress" true (cf > 0);
  check ci "fastpath on/off cycle-identical" cs cf

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "hw_task_api",
    [ t "fft through vm" test_fft_through_vm;
      t "qam poll mode" test_qam_poll_mode;
      t "reclaim between vms" test_reclaim_between_vms;
      t "hwmmu blocks escape" test_hwmmu_blocks_escape;
      t "unknown task rejected" test_unknown_task_rejected;
      t "irq completion mode" test_irq_completion_mode;
      t "release frees prr" test_release_frees_prr;
      t "acquire idempotent" test_acquire_is_idempotent;
      t "fir through vm" test_fir_through_vm;
      t "native and virt agree" test_native_and_virt_results_agree;
      t "stream fft fastpath identity" test_stream_fft_fastpath_identity ] )
