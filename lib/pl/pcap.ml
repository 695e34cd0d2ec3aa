type t = {
  queue : Event_queue.t;
  gic : Gic.t;
  faults : Fault_plane.t;
  obs : Obs.t;
  mutable busy : bool;
  mutable transfers : int;
  mutable failures : int;
}

let create ~faults ~obs queue gic =
  { queue; gic; faults; obs; busy = false; transfers = 0; failures = 0 }

let throughput_bytes_per_sec = 145_000_000

(* Derived from the one constant above so the two cannot drift
   (bytes / (bytes-per-µs) = µs); 145e6 / 1e6 is exactly 145.0 in
   binary floating point, so latencies are bit-identical to the old
   hard-coded divisor. *)
let transfer_cycles (b : Bitstream.t) =
  let bytes_per_us = float_of_int throughput_bytes_per_sec /. 1e6 in
  Cycles.of_us (float_of_int b.Bitstream.size_bytes /. bytes_per_us)

let finish_failed t prr ~elapsed =
  (* The region holds a partial/corrupt configuration: unusable. *)
  prr.Prr.state <- Prr.Empty;
  t.busy <- false;
  t.failures <- t.failures + 1;
  Obs.sample t.obs ~component:"pcap" ~key:prr.Prr.id ~cycles:elapsed;
  Obs.incr (Obs.counter t.obs "pcap.failures");
  (* DevCfg still fires (transfer-done with error status); the manager
     observes the PRR did not become Ready and retries or gives up. *)
  Gic.raise_irq t.gic Irq_id.devcfg

let launch t bit prr =
  if t.busy then `Busy
  else begin
    t.busy <- true;
    prr.Prr.state <- Prr.Reconfiguring;
    prr.Prr.loaded <- None;
    let d = transfer_cycles bit in
    let fault =
      Fault_plane.draw t.faults ~at:(Event_queue.now t.queue)
        ~prr:prr.Prr.id
        ~candidates:[Fault_plane.Pcap_corrupt; Fault_plane.Pcap_abort]
    in
    (* The returned duration is the cycle count until DevCfg actually
       fires: a DMA abort completes (with error status) at d/2, not d —
       callers using it for timeout/trace accounting would otherwise
       overshoot the real completion by 2x. *)
    let until_devcfg =
      match fault with
      | Some Fault_plane.Pcap_corrupt ->
        (* CRC failure detected once the whole stream is in. *)
        ignore
          (Event_queue.schedule_after t.queue d (fun () ->
               finish_failed t prr ~elapsed:d));
        d
      | Some Fault_plane.Pcap_abort ->
        (* DMA abort partway through. *)
        let half = max 1 (d / 2) in
        ignore
          (Event_queue.schedule_after t.queue half (fun () ->
               finish_failed t prr ~elapsed:half));
        half
      | Some _ | None ->
        ignore
          (Event_queue.schedule_after t.queue d (fun () ->
               prr.Prr.loaded <- Some bit;
               prr.Prr.state <- Prr.Ready;
               Prr.write_reg prr Prr.Reg.task_id
                 (Int32.of_int bit.Bitstream.id);
               t.busy <- false;
               t.transfers <- t.transfers + 1;
               Obs.sample t.obs ~component:"pcap" ~key:prr.Prr.id ~cycles:d;
               Obs.incr (Obs.counter t.obs "pcap.transfers");
               Gic.raise_irq t.gic Irq_id.devcfg));
        d
    in
    `Started until_devcfg
  end

let busy t = t.busy
let transfers t = t.transfers
let failures t = t.failures
