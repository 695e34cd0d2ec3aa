(* A streaming-FFT job shape and its [Stream_fft.job_cycles]. *)
type sfft_shape = { points : int; samples : int; fabric : int }

type t = {
  mem : Phys_mem.t;
  queue : Event_queue.t;
  gic : Gic.t;
  hier : Hierarchy.t;
  faults : Fault_plane.t;
  obs : Obs.t;
  prrs : Prr.t array;
  irq_table : int option array;  (* PL source index -> PRR id *)
  mutable jobs_completed : int;
  mutable coherence_warnings : int;
  (* The last streaming-FFT shape this controller ran. A PRR keeps one
     loaded kind and guests stage whole transforms, so jobs repeat their
     shape until a reconfiguration; the entry caches a pure function,
     so it never changes a result. *)
  mutable sfft_last : sfft_shape;
}

let create ?faults ?obs mem queue gic hier ~capacities =
  if capacities = [] then invalid_arg "Prr_controller.create: no PRRs";
  let faults =
    match faults with Some f -> f | None -> Fault_plane.disabled ()
  in
  let obs = match obs with Some o -> o | None -> Obs.disabled () in
  let prrs =
    Array.of_list (List.mapi (fun id c -> Prr.make ~id ~capacity:c) capacities)
  in
  { mem; queue; gic; hier; faults; obs; prrs;
    irq_table = Array.make Irq_id.pl_count None;
    jobs_completed = 0; coherence_warnings = 0;
    (* An empty job costs nothing, so the all-zero shape is correct. *)
    sfft_last = { points = 0; samples = 0; fabric = 0 } }

let prr_count t = Array.length t.prrs

let prr t id =
  if id < 0 || id >= Array.length t.prrs then
    invalid_arg "Prr_controller.prr: bad id";
  t.prrs.(id)

let decode_addr t a =
  let rel = a - Address_map.prr_regs_base in
  if rel < 0 then None
  else begin
    let id = rel / Address_map.prr_regs_stride in
    let off = rel mod Address_map.prr_regs_stride in
    if id >= Array.length t.prrs || off land 3 <> 0 then None
    else begin
      let reg = off / 4 in
      if reg >= Prr.Reg.count then None else Some (t.prrs.(id), reg)
    end
  end

let irq_enabled prr = Int32.to_int (Prr.read_reg prr Prr.Reg.ctrl) land 2 <> 0

(* Fire the PRR's PL interrupt if one is attached and enabled. *)
let signal_completion t prr =
  match prr.Prr.irq_index with
  | Some i when irq_enabled prr -> Gic.raise_irq t.gic (Irq_id.pl i)
  | Some _ | None -> ()

(* Task data moves over AXI_HP, one 64-bit beat per fabric cycle in
   each direction. *)
let sfft_fabric_cycles t ~points ~samples =
  let m = t.sfft_last in
  if m.points = points && m.samples = samples then m.fabric
  else begin
    let fabric =
      Stream_fft.job_cycles ~points ~samples ~in_beat:1 ~out_beat:1 ()
    in
    t.sfft_last <- { points; samples; fabric };
    fabric
  end

let start_job t prr =
  match prr.Prr.state, prr.Prr.loaded with
  | Prr.Busy, _ | Prr.Reconfiguring, _ ->
    () (* start while not ready: hardware ignores it *)
  | (Prr.Empty | Prr.Ready), None -> ()
  | (Prr.Empty | Prr.Ready), Some bit ->
    (* The submit end of the guest-visible submit→completion-vIRQ
       span: every outcome below (refusal included) raises the PRR's
       interrupt, and the kernel samples the turnaround at injection. *)
    prr.Prr.submitted_at <- Event_queue.now t.queue;
    let reg i = Int32.to_int (Prr.read_reg prr i) in
    (match Hw_mmu.window prr.Prr.hw_mmu with
     | None -> Prr.set_status_bit prr 2 true
     | Some (wbase, _) ->
       let job =
         { Ip_core.kind = bit.Bitstream.kind;
           src = wbase + reg Prr.Reg.src_offset;
           dst = wbase + reg Prr.Reg.dst_offset;
           len = reg Prr.Reg.len;
           param = reg Prr.Reg.param }
       in
       let valid =
         match Ip_core.validate job with Ok () -> true | Error _ -> false
       in
       let in_bytes = if valid then Ip_core.bytes_in job else 0 in
       let out_bytes = if valid then Ip_core.bytes_out job else 0 in
       let src_ok =
         valid && Hw_mmu.check prr.Prr.hw_mmu ~base:job.Ip_core.src ~len:in_bytes
       in
       let dst_ok =
         valid && Hw_mmu.check prr.Prr.hw_mmu ~base:job.Ip_core.dst ~len:out_bytes
       in
       let fault =
         if valid && src_ok && dst_ok then
           Fault_plane.draw t.faults ~at:(Event_queue.now t.queue)
             ~prr:prr.Prr.id
             ~candidates:[Fault_plane.Ip_hang; Fault_plane.Dma_error;
                          Fault_plane.Hwmmu_spurious]
         else None
       in
       if not (valid && src_ok && dst_ok)
          || fault = Some Fault_plane.Hwmmu_spurious then begin
         (* Refused by the hwMMU (or malformed, or a spuriously
            injected refusal): report, raise IRQ so a sleeping client
            is not stuck waiting forever. *)
         Prr.set_status_bit prr 2 true;
         Prr.set_status_bit prr 1 true;
         signal_completion t prr
       end
       else begin
         (* Starting a job clears the previous job's event bits. *)
         Prr.set_status_bit prr 1 false;
         Prr.set_status_bit prr 2 false;
         Prr.set_status_bit prr 3 false;
         Prr.set_status_bit prr 4 false;
         if Hierarchy.dirty_in_range t.hier job.Ip_core.src in_bytes then begin
           t.coherence_warnings <- t.coherence_warnings + 1;
           Prr.set_status_bit prr 3 true
         end;
         prr.Prr.state <- Prr.Busy;
         prr.Prr.busy_since <- Event_queue.now t.queue;
         prr.Prr.job_gen <- prr.Prr.job_gen + 1;
         Prr.set_status_bit prr 0 true;
         let latency =
           match job.Ip_core.kind with
           | Task_kind.Fft_stream points ->
             (* Stage-accurate streaming path: DMA beats and butterfly
                stages overlap, so the lump-sum dma + compute formula
                is replaced wholesale by the pipeline recurrence. Burst
                setup is still charged once per direction. The
                recurrence runs only when the job shape changes. *)
             let fabric =
               sfft_fabric_cycles t ~points ~samples:(Ip_core.items job)
             in
             (2 * Axi.burst_setup_cycles)
             + Task_kind.cpu_cycles (float_of_int fabric)
           | Task_kind.Fft _ | Task_kind.Qam _ | Task_kind.Fir _
           | Task_kind.Scramble _ | Task_kind.Digest _ | Task_kind.Matmul _ ->
             Axi.hp_transfer_cycles (in_bytes + out_bytes)
             + Task_kind.compute_cycles job.Ip_core.kind (Ip_core.items job)
         in
         let gen = prr.Prr.job_gen in
         match fault with
         | Some Fault_plane.Ip_hang ->
           (* The core wedges: stuck busy, no completion event. Only a
              forced reset (manager timeout) recovers the region. *)
           ()
         | Some Fault_plane.Dma_error ->
           ignore
             (Event_queue.schedule_after t.queue latency (fun () ->
                  if prr.Prr.job_gen = gen && prr.Prr.state = Prr.Busy
                  then begin
                    (* AXI beat error: no data written. *)
                    prr.Prr.state <- Prr.Ready;
                    prr.Prr.busy_cycles <- prr.Prr.busy_cycles + latency;
                    Prr.set_status_bit prr 0 false;
                    Prr.set_status_bit prr 4 true;
                    Obs.sample t.obs ~component:"prr_job" ~key:prr.Prr.id
                      ~cycles:latency;
                    Obs.incr (Obs.counter t.obs "prr.jobs_faulted");
                    signal_completion t prr
                  end))
         | Some _ | None ->
           ignore
             (Event_queue.schedule_after t.queue latency (fun () ->
                  if prr.Prr.job_gen = gen && prr.Prr.state = Prr.Busy
                  then begin
                    Ip_core.run t.mem job;
                    prr.Prr.state <- Prr.Ready;
                    prr.Prr.busy_cycles <- prr.Prr.busy_cycles + latency;
                    Prr.set_status_bit prr 0 false;
                    Prr.set_status_bit prr 1 true;
                    t.jobs_completed <- t.jobs_completed + 1;
                    Obs.sample t.obs ~component:"prr_job" ~key:prr.Prr.id
                      ~cycles:latency;
                    Obs.incr (Obs.counter t.obs "prr.jobs_completed");
                    signal_completion t prr
                  end))
       end)

let force_reset t ~prr_id =
  let p = prr t prr_id in
  match p.Prr.state with
  | Prr.Busy ->
    (* Abort the in-flight job: any scheduled completion for it is
       invalidated by the generation bump. The loaded configuration
       survives a core reset. *)
    p.Prr.job_gen <- p.Prr.job_gen + 1;
    p.Prr.busy_cycles <-
      p.Prr.busy_cycles + (Event_queue.now t.queue - p.Prr.busy_since);
    p.Prr.state <-
      (match p.Prr.loaded with Some _ -> Prr.Ready | None -> Prr.Empty);
    Prr.set_status_bit p 0 false;
    Prr.set_status_bit p 4 true;
    Prr.set_status_bit p 1 true;
    Obs.incr (Obs.counter t.obs "prr.forced_resets");
    signal_completion t p;
    true
  | _ -> false

let mmio_read t a =
  match decode_addr t a with
  | None -> invalid_arg "Prr_controller.mmio_read: unmapped PL address"
  | Some (prr, reg) ->
    let v = Prr.read_reg prr reg in
    if reg = Prr.Reg.status then begin
      (* Read-to-clear for the event bits; busy reflects live state. *)
      Prr.set_status_bit prr 1 false;
      Prr.set_status_bit prr 2 false;
      Prr.set_status_bit prr 3 false;
      Prr.set_status_bit prr 4 false
    end;
    v

let mmio_write t a v =
  match decode_addr t a with
  | None -> invalid_arg "Prr_controller.mmio_write: unmapped PL address"
  | Some (prr, reg) ->
    if reg = Prr.Reg.status || reg = Prr.Reg.task_id || reg = Prr.Reg.irq then
      () (* read-only *)
    else begin
      Prr.write_reg prr reg v;
      if reg = Prr.Reg.ctrl && Int32.to_int v land 1 <> 0 then begin
        (* The start bit is self-clearing. *)
        Prr.write_reg prr Prr.Reg.ctrl (Int32.of_int (Int32.to_int v land lnot 1));
        start_job t prr
      end
    end

let allocate_irq t ~prr_id =
  let p = prr t prr_id in
  match p.Prr.irq_index with
  | Some i -> Some i (* already attached *)
  | None ->
    let rec find i =
      if i >= Irq_id.pl_count then None
      else if t.irq_table.(i) = None then begin
        t.irq_table.(i) <- Some prr_id;
        p.Prr.irq_index <- Some i;
        Prr.write_reg p Prr.Reg.irq (Int32.of_int (i + 1));
        Some i
      end
      else find (i + 1)
    in
    find 0

let release_irq t ~prr_id =
  let p = prr t prr_id in
  match p.Prr.irq_index with
  | None -> ()
  | Some i ->
    t.irq_table.(i) <- None;
    p.Prr.irq_index <- None;
    Prr.write_reg p Prr.Reg.irq 0l

let irq_owner t i =
  if i < 0 || i >= Irq_id.pl_count then
    invalid_arg "Prr_controller.irq_owner: bad source";
  t.irq_table.(i)

let jobs_completed t = t.jobs_completed
let coherence_warnings t = t.coherence_warnings
