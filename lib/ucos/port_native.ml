type system = {
  z : Zynq.t;
  hwtm : Hw_task_manager.t;
  pt : Page_table.t;
  phys_base : Addr.t;
  port : Port.t;
}

let native_asid = 2

(* Cost of taking one interrupt natively: exception entry + ack/EOI. *)
let charge_native_irq z =
  Clock.advance z.Zynq.clock (Cpu_mode.exception_entry_cycles + 40)

let make_pause z () =
  (* Minimal per-boundary cost: keeps simulated time progressing even
     in guest loops that do no charged work. *)
  Clock.advance z.Zynq.clock 20;
  ignore (Event_queue.run_due z.Zynq.queue);
  let rec drainq acc =
    if Gic.line_asserted z.Zynq.gic then begin
      charge_native_irq z;
      match Gic.ack z.Zynq.gic with
      | Some irq ->
        Gic.eoi z.Zynq.gic irq;
        drainq (irq :: acc)
      | None -> acc
    end
    else acc
  in
  List.rev (drainq [])

let make_idle z pause () =
  let rec wait () =
    match pause () with
    | [] ->
      if Zynq.idle_until_next_event z then wait ()
      else failwith "Port_native: idle with no pending events (deadlock)"
    | irqs -> irqs
  in
  wait ()

let linear_phys phys_base vaddr len =
  if vaddr < Guest_layout.kernel_base || len < 0
     || vaddr + len > Guest_layout.page_region_base
  then None
  else Some (phys_base + (vaddr - Guest_layout.kernel_base))

let create () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  let pt = Kmem.make_guest_pt kmem ~index:0 in
  (* Privileged identity view of the PL window for register access. *)
  let a = ref Address_map.axi_gp0_base in
  while !a < Address_map.axi_gp0_base + Address_map.axi_gp0_size do
    Page_table.map_section pt ~virt:!a ~phys:!a
      { Pte.ap = Pte.Ap_priv; domain = Kmem.dom_kernel; global = true };
    a := !a + Addr.section_size
  done;
  Mmu.set_ttbr z.Zynq.mmu (Page_table.root pt);
  Mmu.set_asid z.Zynq.mmu native_asid;
  Dacr.set_all (Mmu.dacr z.Zynq.mmu) Dacr.Client;
  (* One unified memory space: interface pages need no mapping; an
     allocated PL interrupt is simply enabled at the GIC. *)
  let hwtm =
    Hw_task_manager.create z
      ~env:
        { Hw_task_manager.shared_space with
          notify_irq =
            (fun ~client_id:_ _ i -> Gic.enable z.Zynq.gic (Irq_id.pl i)) }
  in
  let phys_base = Address_map.guest_phys_base 0 in
  let pause = make_pause z in
  let hw_request ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq =
    match linear_phys phys_base data_vaddr data_len with
    | None -> Hyper.R_error "data section out of range"
    | Some data_phys ->
      let r =
        Hw_task_manager.request hwtm ~client_id:0 ~data_base:data_phys
          ~data_len ~iface_vaddr ~task ~want_irq
      in
      Hyper.R_hw
        { status = r.Hw_task_manager.status;
          irq = Option.map Irq_id.pl r.Hw_task_manager.irq;
          prr = r.Hw_task_manager.prr }
  in
  let port =
    { Port.zynq = z;
      priv = true;
      my_id = 0;
      timer_irq = Irq_id.private_timer;
      doorbell_irq = None;
      pause;
      idle_wait = make_idle z pause;
      start_tick =
        (fun interval ->
           Gic.enable z.Zynq.gic Irq_id.private_timer;
           Private_timer.start z.Zynq.ptimer ~interval);
      stop_tick = (fun () -> Private_timer.stop z.Zynq.ptimer);
      ticks_elapsed =
        (let last = ref 0 in
         let period = Cycles.of_ms 1.0 in
         fun () ->
           let now = Clock.now z.Zynq.clock in
           if !last = 0 then begin
             last := now;
             1
           end
           else begin
             let n = (now - !last) / period in
             last := !last + (n * period);
             if n > 0 then n else 1
           end);
      enable_irq = (fun irq -> Gic.enable z.Zynq.gic irq);
      uart =
        (fun s ->
           Clock.advance z.Zynq.clock (String.length s * Costs.uart_per_byte);
           Uart.write_string z.Zynq.uart s);
      cache_clean =
        (fun ~vaddr ~len ->
           match linear_phys phys_base vaddr len with
           | Some pa -> ignore (Hierarchy.clean_dcache_range z.Zynq.hier pa len)
           | None -> ());
      cache_invalidate =
        (fun ~vaddr ~len ->
           match linear_phys phys_base vaddr len with
           | Some pa ->
             ignore (Hierarchy.invalidate_dcache_range z.Zynq.hier pa len)
           | None -> ());
      hw_request;
      hw_release =
        (fun ~task ->
           match Hw_task_manager.release hwtm ~client_id:0 ~task with
           | Ok () -> Hyper.R_unit
           | Error e -> Hyper.R_error e);
      hw_status =
        (fun ~task ->
           let ready, consistent =
             Hw_task_manager.poll hwtm ~client_id:0 ~task
           in
           let faults = Hw_task_manager.faults hwtm ~client_id:0 ~task in
           Hyper.R_status { prr_ready = ready; consistent; faults });
      ring_setup =
        (fun ~entries:_ ~cvirq_budget:_ -> Hyper.R_error "native: no ring ABI");
      ring_doorbell = (fun () -> Hyper.R_error "native: no ring ABI");
      send = (fun ~dest:_ _ -> Hyper.R_error "native: no peers");
      recv = (fun () -> None) }
  in
  { z; hwtm; pt; phys_base; port }

let zynq s = s.z
let hwtm s = s.hwtm
let port s = s.port
let register_hw_task s kind = Hw_task_manager.register_task s.hwtm kind
let run s main = main s.port
