(* Software-defined-radio pipeline across two VMs — the kind of
   communication workload the paper's introduction motivates.

   The TX guest modulates a frame with a QAM-64 hardware task, runs it
   back through the demodulator (a loopback channel), and ships the
   recovered bits to the RX guest over Mini-NOVA IPC. The RX guest
   compares them against the reference frame and reports the BER.

     dune exec examples/sdr_pipeline.exe *)

let frame_bits = 60 (* fits one IPC payload (64 words) *)

let () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let qam64 = Kernel.register_hw_task kern (Task_kind.Qam 64) in
  let rng = Rng.create ~seed:2024 in
  let frames = 5 in

  (* RX guest: waits for pairs of (reference, received) frames. *)
  let rx =
    Kernel.create_vm kern ~name:"rx" (fun genv ->
        let os = Ucos.create (Port.paravirt genv) in
        ignore
          (Ucos.spawn os ~name:"receiver" ~prio:5 (fun () ->
               let port = Ucos.port os in
               let recv_frame () =
                 let rec wait () =
                   match port.Port.recv () with
                   | Some (_, payload) -> payload
                   | None ->
                     ignore (port.Port.idle_wait ());
                     wait ()
                 in
                 wait ()
               in
               for k = 1 to frames do
                 let reference = recv_frame () in
                 let received = recv_frame () in
                 let errors = ref 0 in
                 Array.iteri
                   (fun i b -> if b <> received.(i) then incr errors)
                   reference;
                 Ucos.print os
                   (Printf.sprintf "rx: frame %d/%d  %d bits  BER %.4f\n" k
                      frames (Array.length reference)
                      (float_of_int !errors
                       /. float_of_int (Array.length reference)))
               done;
               Ucos.print os "rx: pipeline complete\n"));
        Ucos.run os)
  in

  (* TX guest: hardware modulate + demodulate, then IPC to rx. *)
  ignore
    (Kernel.create_vm kern ~name:"tx" (fun genv ->
         let os = Ucos.create (Port.paravirt genv) in
         ignore
           (Ucos.spawn os ~name:"transmitter" ~prio:5 (fun () ->
                let port = Ucos.port os in
                match Hw_task_api.acquire os ~task:qam64 ~want_irq:true () with
                | Error e -> Ucos.print os ("tx: acquire failed: " ^ e ^ "\n")
                | Ok h ->
                  for _ = 1 to frames do
                    let bits =
                      Array.init frame_bits (fun _ -> Rng.int rng 2)
                    in
                    (match Hw_task_api.run_qam_mod os h ~order:64 ~bits with
                     | Error e -> failwith ("modulate: " ^ e)
                     | Ok (i, q) ->
                       (match
                          Hw_task_api.run_qam_demod os h ~order:64 ~i ~q
                        with
                        | Error e -> failwith ("demodulate: " ^ e)
                        | Ok received ->
                          let send payload =
                            match
                              port.Port.send ~dest:rx.Pd.id payload
                            with
                            | Hyper.R_unit -> ()
                            | Hyper.R_error e -> failwith ("send: " ^ e)
                            | _ -> failwith "send: unexpected response"
                          in
                          send bits;
                          send received));
                    Ucos.delay os 2
                  done;
                  Hw_task_api.release os h;
                  Ucos.print os "tx: all frames sent\n"));
         Ucos.run os));

  Kernel.run kern ~until:(Cycles.of_ms 2000.0);
  print_string (Uart.contents z.Zynq.uart);
  Format.printf "---@.sim time %.1f ms, %d PCAP downloads, %d DMA jobs@."
    (Cycles.to_ms (Clock.now z.Zynq.clock))
    (Pcap.transfers z.Zynq.pcap)
    (Prr_controller.jobs_completed z.Zynq.prrc)
