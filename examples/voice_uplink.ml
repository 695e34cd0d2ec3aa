(* A voice uplink chain in one VM — the communication-domain workload
   family the paper targets, end to end:

     microphone PCM
       -> hardware FIR low-pass (anti-alias, FPGA task)
       -> GSM 06.10-style short-term LPC analysis (software), the
          compute-heavy front half of the full-rate encoder

   Both a DPR hardware task and the software speech analysis run in
   the same guest, with the FIR swapped into a PRR on demand.

     dune exec examples/voice_uplink.exe *)

let () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let fir = Kernel.register_hw_task kern (Task_kind.Fir 63) in
  let seconds = 0.4 in
  let nsamp = int_of_float (8000.0 *. seconds) / 160 * 160 in

  ignore
    (Kernel.create_vm kern ~name:"uplink" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"chain" ~prio:5 (fun () ->
                let rng = Rng.create ~seed:77 in
                let speech = Signal.speech_like rng nsamp in
                Ucos.print os
                  (Printf.sprintf "uplink: %d ms of speech captured\n"
                     (nsamp / 8));
                (* 1. Anti-alias with the FPGA FIR, one 160-sample frame
                   at a time (as a real front-end would stream it). *)
                match Hw_task_api.acquire os ~task:fir ~want_irq:true () with
                | Error e -> Ucos.print os ("uplink: no FIR: " ^ e ^ "\n")
                | Ok h ->
                  let filtered = Array.make nsamp 0 in
                  let frames = nsamp / 160 in
                  let failures = ref 0 in
                  for f = 0 to frames - 1 do
                    let chunk =
                      Array.init 160 (fun i ->
                          float_of_int speech.((f * 160) + i))
                    in
                    match
                      Hw_task_api.run_fir os h ~response:(Fir.Lowpass 0.22)
                        ~samples:chunk
                    with
                    | Ok y ->
                      Array.iteri
                        (fun i v ->
                           filtered.((f * 160) + i)
                           <- max (-32768) (min 32767 (int_of_float v)))
                        y
                    | Error _ -> incr failures
                  done;
                  Hw_task_api.release os h;
                  Ucos.print os
                    (Printf.sprintf
                       "uplink: %d/%d frames filtered in hardware\n"
                       (frames - !failures) frames);
                  (* 2. GSM LPC analysis per frame (software): 8 log-area
                     ratios, and the prediction gain acf(0) / residual
                     = 1 / prod (1 - k_i^2) of its reflection
                     coefficients. *)
                  let gain_db = ref 0.0 in
                  for f = 0 to frames - 1 do
                    let frame = Array.sub filtered (f * 160) 160 in
                    ignore (Gsm_lpc.analyze frame);
                    let residual =
                      Array.fold_left
                        (fun acc k -> acc *. (1.0 -. (k *. k)))
                        1.0
                        (Gsm_lpc.reflection_coefficients frame)
                    in
                    gain_db := !gain_db -. (10.0 *. log10 residual)
                  done;
                  Ucos.print os
                    (Printf.sprintf
                       "uplink: GSM LPC analysed %d frames (%.1f s of \
                        audio), mean prediction gain %.1f dB\n"
                       frames seconds
                       (!gain_db /. float_of_int frames))));
         Ucos.run os));

  Kernel.run kern ~until:(Cycles.of_ms 3000.0);
  print_string (Uart.contents z.Zynq.uart);
  Format.printf "---@.sim %.0f ms, %d DMA jobs, %d hypercalls@."
    (Cycles.to_ms (Clock.now z.Zynq.clock))
    (Prr_controller.jobs_completed z.Zynq.prrc)
    (Kernel.hypercalls kern)
