(* Mixed criticality: a high-priority RTOS VM with a periodic deadline
   coexists with best-effort VMs — the scenario the paper's
   introduction gives for virtualization in embedded systems ("host
   real-time OS and high-level generic OS on a single platform").

   The control VM wakes on a 5 ms virtual timer and measures its
   activation jitter while two best-effort VMs hog the CPU at lower
   priority. Priority preemption keeps the control loop's latency
   bounded even though the hogs never yield voluntarily.

     dune exec examples/mixed_criticality.exe *)

let () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let period_ms = 5.0 in
  let activations = 40 in
  let lateness = Stats.create () in
  let hogs_alive = ref true in

  (* The critical VM: plain paravirtualized control loop at priority 4. *)
  ignore
    (Kernel.create_vm kern ~name:"control" ~priority:4 (fun _ ->
         ignore (Hyper.hypercall (Hyper.Irq_enable Irq_id.private_timer));
         ignore
           (Hyper.hypercall
              (Hyper.Vtimer_config { interval = Cycles.of_ms period_ms }));
         let expected = ref (Clock.now z.Zynq.clock + Cycles.of_ms period_ms) in
         let count = ref 0 in
         while !count < activations do
           let r = Hyper.idle () in
           if List.mem Irq_id.private_timer r.Hyper.virqs then begin
             let now = Clock.now z.Zynq.clock in
             Stats.add lateness (Cycles.to_us (max 0 (now - !expected)));
             expected := !expected + Cycles.of_ms period_ms;
             incr count
           end
         done;
         ignore (Hyper.hypercall Hyper.Vtimer_stop);
         hogs_alive := false));

  (* Two best-effort VMs that never stop computing. *)
  for i = 0 to 1 do
    ignore
      (Kernel.create_vm kern
         ~name:(Printf.sprintf "besteffort%d" i)
         ~priority:1
         (fun genv ->
            let hog =
              Exec.pin1
                { Exec.label = "hog";
                  code = { Exec.base = Ucos_layout.app_code_base; len = 512 };
                  reads =
                    [ { Exec.base = Guest_layout.user_base; len = 16384 } ];
                  writes = [];
                  base_cycles = 20000 }
            in
            while !hogs_alive do
              Exec.run_pinned genv.Kernel.env_zynq ~priv:false hog;
              ignore (Hyper.pause ())
            done))
  done;

  Kernel.run kern ~until:(Cycles.of_ms 1000.0);

  Format.printf "control loop: %d activations at %.0f ms period@."
    (Stats.count lateness) period_ms;
  Format.printf
    "activation lateness: mean %.1f us, worst %.1f us (vs %.0f us period)@."
    (Stats.mean lateness) (Stats.max lateness) (period_ms *. 1000.0);
  Format.printf "VM switches: %d@."
    (Stats.count (Probe.stats (Kernel.probe kern) Probe.vm_switch));
  if Stats.max lateness < period_ms *. 1000.0 /. 2.0 then
    Format.printf
      "=> the RTOS deadline held despite two CPU-bound best-effort VMs@."
  else Format.printf "=> deadline violated!@."
