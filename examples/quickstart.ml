(* Quickstart: boot Mini-NOVA on a simulated Zynq, start one
   paravirtualized uC/OS-II guest, and run an FFT on a dynamically
   reconfigured hardware task.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulated Zynq-7000 board and the microkernel. *)
  let z = Zynq.create () in
  let kern = Kernel.boot z in

  (* 2. Register hardware-task bitstreams with the Hardware Task
     Manager (they live in its exclusive bitstream store). *)
  let fft1k = Kernel.register_hw_task kern (Task_kind.Fft 1024) in
  let qam16 = Kernel.register_hw_task kern (Task_kind.Qam 16) in

  (* 3. One guest VM running the paravirtualized RTOS. *)
  ignore
    (Kernel.create_vm kern ~name:"demo" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"main" ~prio:5 (fun () ->
                Ucos.print os "guest: requesting FFT-1024 hardware task\n";
                match Hw_task_api.acquire os ~task:fft1k ~want_irq:true () with
                | Error e -> Ucos.print os ("acquire failed: " ^ e ^ "\n")
                | Ok h ->
                  (* A two-tone test signal, transformed by the FPGA. *)
                  let n = 1024 in
                  let re =
                    Array.init n (fun i ->
                        let t = float_of_int i in
                        sin (2.0 *. Float.pi *. 50.0 *. t /. float_of_int n)
                        +. (0.5
                            *. sin
                                 (2.0 *. Float.pi *. 200.0 *. t
                                  /. float_of_int n)))
                  in
                  let im = Array.make n 0.0 in
                  (match Hw_task_api.run_fft os h ~inverse:false ~re ~im with
                   | Error e -> Ucos.print os ("job failed: " ^ e ^ "\n")
                   | Ok (hr, hi) ->
                     let mags = Fft.magnitudes hr hi in
                     let peak = ref 1 in
                     for k = 2 to (n / 2) - 1 do
                       if mags.(k) > mags.(!peak) then peak := k
                     done;
                     Ucos.print os
                       (Printf.sprintf
                          "guest: hardware FFT done, main tone at bin %d\n"
                          !peak));
                  Hw_task_api.release os h;
                  (* Swap the region over to a QAM modulator (DPR!). *)
                  Ucos.print os "guest: swapping in QAM-16 modulator\n";
                  (match Hw_task_api.acquire os ~task:qam16 () with
                   | Error e -> Ucos.print os ("acquire failed: " ^ e ^ "\n")
                   | Ok h ->
                     let bits = Array.init 64 (fun i -> (i / 3) land 1) in
                     (match Hw_task_api.run_qam_mod os h ~order:16 ~bits with
                      | Ok (i, q) ->
                        let back = Qam.demodulate Qam.Qam16 ~i ~q in
                        Ucos.print os
                          (Printf.sprintf
                             "guest: QAM loopback BER = %.3f over %d bits\n"
                             (Signal.ber bits back) (Array.length bits))
                      | Error e -> Ucos.print os ("job failed: " ^ e ^ "\n"));
                     Hw_task_api.release os h)));
         Ucos.run os));

  (* 4. Run the simulation. *)
  Kernel.run kern ~until:(Cycles.of_ms 500.0);

  (* 5. What happened? *)
  print_string (Uart.contents z.Zynq.uart);
  let probe = Kernel.probe kern in
  Format.printf
    "---@.sim time          %.2f ms@.hypercalls        %d@.PCAP downloads    %d@."
    (Cycles.to_ms (Clock.now z.Zynq.clock))
    (Kernel.hypercalls kern)
    (Pcap.transfers z.Zynq.pcap);
  let s = Probe.stats probe Probe.hwtm_exec in
  if Stats.count s > 0 then
    Format.printf "HW manager exec   %.2f us mean over %d requests@."
      (Cycles.to_us (int_of_float (Stats.mean s)))
      (Stats.count s)
