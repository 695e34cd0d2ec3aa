type t = {
  zynq : Zynq.t;
  priv : bool;
  my_id : int;
  timer_irq : int;
  doorbell_irq : int option;
  pause : unit -> int list;
  idle_wait : unit -> int list;
  start_tick : Cycles.t -> unit;
  stop_tick : unit -> unit;
  ticks_elapsed : unit -> int;
  enable_irq : int -> unit;
  uart : string -> unit;
  cache_clean : vaddr:Addr.t -> len:int -> unit;
  cache_invalidate : vaddr:Addr.t -> len:int -> unit;
  hw_request :
    task:int -> iface_vaddr:Addr.t -> data_vaddr:Addr.t -> data_len:int ->
    want_irq:bool -> Hyper.response;
  hw_release : task:int -> Hyper.response;
  hw_status : task:int -> Hyper.response;
  ring_setup : entries:int -> cvirq_budget:int -> Hyper.response;
  ring_doorbell : unit -> Hyper.response;
  send : dest:int -> int array -> Hyper.response;
  recv : unit -> (int * int array) option;
}

(* The paravirtualization patch: every sensitive operation of the
   original OS is replaced by a hypercall (paper §V-A). *)
let paravirt (env : Kernel.guest_env) =
  let call = Hyper.hypercall in
  let expect_unit what = function
    | Hyper.R_unit -> ()
    | Hyper.R_error e -> failwith (what ^ ": " ^ e)
    | _ -> failwith (what ^ ": unexpected response")
  in
  { zynq = env.Kernel.env_zynq;
    priv = false;
    my_id = env.Kernel.pd_id;
    timer_irq = Irq_id.private_timer;
    doorbell_irq = Some Kernel.ipc_doorbell_irq;
    pause = (fun () -> (Hyper.pause ()).Hyper.virqs);
    idle_wait = (fun () -> (Hyper.idle ()).Hyper.virqs);
    start_tick =
      (fun interval ->
         expect_unit "irq_enable" (call (Hyper.Irq_enable Irq_id.private_timer));
         expect_unit "vtimer" (call (Hyper.Vtimer_config { interval })));
    stop_tick = (fun () -> expect_unit "vtimer_stop" (call Hyper.Vtimer_stop));
    ticks_elapsed =
      (let last = ref 0 in
       let period = Cycles.of_ms 1.0 in
       fun () ->
         let now = Clock.now env.Kernel.env_zynq.Zynq.clock in
         if !last = 0 then begin
           last := now;
           1
         end
         else begin
           let n = (now - !last) / period in
           last := !last + (n * period);
           if n > 0 then n else 1
         end);
    enable_irq =
      (fun irq -> expect_unit "irq_enable" (call (Hyper.Irq_enable irq)));
    uart = (fun s -> expect_unit "uart" (call (Hyper.Uart_write s)));
    cache_clean =
      (fun ~vaddr ~len ->
         expect_unit "cache_clean" (call (Hyper.Cache_clean_range { vaddr; len })));
    cache_invalidate =
      (fun ~vaddr ~len ->
         expect_unit "cache_inv"
           (call (Hyper.Cache_invalidate_range { vaddr; len })));
    hw_request =
      (fun ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq ->
         call
           (Hyper.Hw_task_request
              { task; iface_vaddr; data_vaddr; data_len; want_irq }));
    hw_release = (fun ~task -> call (Hyper.Hw_task_release { task }));
    hw_status = (fun ~task -> call (Hyper.Hw_task_status { task }));
    ring_setup =
      (fun ~entries ~cvirq_budget ->
         call (Hyper.Ring_setup { entries; cvirq_budget }));
    ring_doorbell = (fun () -> call Hyper.Ring_doorbell);
    send = (fun ~dest payload -> call (Hyper.Vm_send { dest; payload }));
    recv =
      (fun () ->
         match call Hyper.Vm_recv with
         | Hyper.R_msg m -> m
         | _ -> None) }
