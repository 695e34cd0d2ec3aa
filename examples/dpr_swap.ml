(* Dynamic partial reconfiguration under contention.

   A board with a single FFT-capable region hosts two VMs that both
   want hardware FFTs. The Hardware Task Manager keeps reclaiming the
   PRR from one client for the other (paper Fig 5/7): the displaced
   guest discovers it through the inconsistent flag in its data
   section, or through the page fault on its demapped interface, and
   simply re-requests the task.

     dune exec examples/dpr_swap.exe *)

let () =
  (* One big region (FFT-capable) + one small (QAM only). *)
  let z = Zynq.create ~prr_capacities:[ 1300; 200 ] () in
  let kern = Kernel.boot z in
  let fft256 = Kernel.register_hw_task kern (Task_kind.Fft 256) in
  let rounds = 4 in

  let vm name seed =
    ignore
      (Kernel.create_vm kern ~name (fun genv ->
           let os = Ucos.create (Port.paravirt genv) in
           ignore
             (Ucos.spawn os ~name:"worker" ~prio:5 (fun () ->
                  let rng = Rng.create ~seed in
                  let completed = ref 0 in
                  let reacquired = ref 0 in
                  while !completed < rounds do
                    match Hw_task_api.acquire os ~task:fft256 () with
                    | Error _ -> Ucos.delay os 2
                    | Ok h ->
                      if Hw_task_api.inconsistent os h then
                        Ucos.print os
                          (name ^ ": data section flags a past reclaim\n");
                      let re =
                        Array.init 256 (fun _ -> Rng.float rng 2.0 -. 1.0)
                      in
                      let im = Array.make 256 0.0 in
                      (match
                         Hw_task_api.run_fft os h ~inverse:false ~re ~im
                       with
                       | Ok (hr, hi) ->
                         (* verify against software *)
                         let sr = Array.copy re and si = Array.copy im in
                         Fft.transform sr si;
                         let err =
                           Float.max (Fft.max_error hr sr)
                             (Fft.max_error hi si)
                         in
                         incr completed;
                         Ucos.print os
                           (Printf.sprintf
                              "%s: FFT %d/%d ok (err %.2e) at %.1f ms\n" name
                              !completed rounds err
                              (Cycles.to_ms (Clock.now z.Zynq.clock)))
                       | Error msg ->
                         (* Reclaimed mid-flight: request again. *)
                         incr reacquired;
                         Ucos.print os
                           (Printf.sprintf "%s: lost the PRR (%s), retrying\n"
                              name msg));
                      (* Let the rival steal the region. *)
                      Ucos.delay os (1 + Rng.int rng 3)
                  done;
                  Ucos.print os
                    (Printf.sprintf "%s: done (%d mid-job losses)\n" name
                       !reacquired)));
           Ucos.run os))
  in
  vm "alice" 1;
  vm "bob" 2;

  Kernel.run kern ~until:(Cycles.of_ms 5000.0);
  print_string (Uart.contents z.Zynq.uart);
  let hwtm = Kernel.hwtm kern in
  Format.printf
    "---@.requests %d, PRR reclaims %d, PCAP downloads %d, sim %.0f ms@."
    (Hw_task_manager.requests hwtm)
    (Hw_task_manager.reclaims hwtm)
    (Pcap.transfers z.Zynq.pcap)
    (Cycles.to_ms (Clock.now z.Zynq.clock))
