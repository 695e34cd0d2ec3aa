type task_id = int

type pend_result = [ `Ok | `Timeout ]

type _ Effect.t += Task_yield : unit Effect.t | Task_block : unit Effect.t

type tstep =
  | T_yield of (unit, tstep) Effect.Deep.continuation
  | T_block of (unit, tstep) Effect.Deep.continuation
  | T_done
  | T_crash of exn

type sem = { mutable s_count : int; mutable s_waiters : int list }

type task = {
  tid : int;
  tname : string;
  prio : int;
  mutable body : (unit -> unit) option;
  mutable tstate : [ `Ready | `Blocked | `Done | `Crashed ];
  mutable delay_ticks : int;       (* 0 = no pending delay/timeout *)
  mutable waiting : sem option;
  mutable timed_out : bool;
  mutable started : bool;
  mutable cont : (unit, tstep) Effect.Deep.continuation option;
}

type t = {
  pt : Port.t;
  charges : Fastpath.pinned array;  (* by [svc_index] *)
  by_prio : task option array;      (* index = priority *)
  rdy_tbl : int array;              (* 8 groups of 8 bits *)
  mutable rdy_grp : int;
  mutable cur : task option;
  mutable stopping : bool;
  mutable crash : exn option;       (* the first task crash *)
  irq_handlers : (unit -> unit) Int_table.t;
}

let tick_interval = Cycles.of_ms 1.0
let max_tasks = 64

(* µC/OS-II OSUnMapTbl: index of the lowest set bit. *)
let unmap_tbl =
  Array.init 256 (fun v ->
      if v = 0 then 0
      else begin
        let rec low i = if v land (1 lsl i) <> 0 then i else low (i + 1) in
        low 0
      end)

(* Service cost model: each OS service is a small code block inside the
   guest-kernel image plus a touch of the TCB table. *)
type svc = Boot | Sched | Tick | Delay | Sem | Irq | Create | Print

(* Label, code offset, code bytes, base cycles. *)
let svc_spec = function
  | Boot -> ("boot", 0x0000, 768, 300)
  | Sched -> ("sched", 0x0400, 224, 25)
  | Tick -> ("tick", 0x0600, 320, 40)
  | Delay -> ("delay", 0x0800, 160, 15)
  | Sem -> ("sem", 0x0A00, 224, 20)
  | Irq -> ("irq", 0x1200, 224, 20)
  | Create -> ("create", 0x1400, 288, 40)
  | Print -> ("print", 0x1600, 128, 10)

let svc_index = function
  | Boot -> 0 | Sched -> 1 | Tick -> 2 | Delay -> 3 | Sem -> 4 | Irq -> 5
  | Create -> 6 | Print -> 7

(* Every service, in [svc_index] order. *)
let services = [| Boot; Sched; Tick; Delay; Sem; Irq; Create; Print |]

let () = Array.iteri (fun i svc -> assert (svc_index svc = i)) services

(* Each service's footprint is fixed for the OS instance's lifetime:
   intern them all as pinned traces at creation, so a charge is one
   array read plus an epoch-validated replay. *)
let make_charges () =
  let pin svc =
    let label, off, len, base = svc_spec svc in
    Exec.pin1
      { Exec.label = "ucos_" ^ label;
        code = { Exec.base = Ucos_layout.os_code_base + off; len };
        reads = [ { Exec.base = Ucos_layout.tcb_base; len = 256 } ];
        writes = [ { Exec.base = Ucos_layout.tcb_base + 256; len = 64 } ];
        base_cycles = base }
  in
  Array.map pin services

let create pt =
  { pt;
    charges = make_charges ();
    by_prio = Array.make max_tasks None;
    rdy_tbl = Array.make 8 0;
    rdy_grp = 0;
    cur = None;
    stopping = false;
    crash = None;
    irq_handlers = Int_table.create 8 }

let port t = t.pt

(* Ready bitmap maintenance (OSRdyGrp / OSRdyTbl). *)
let set_ready t prio =
  t.rdy_grp <- t.rdy_grp lor (1 lsl (prio lsr 3));
  t.rdy_tbl.(prio lsr 3) <- t.rdy_tbl.(prio lsr 3) lor (1 lsl (prio land 7))

let clear_ready t prio =
  let g = prio lsr 3 in
  t.rdy_tbl.(g) <- t.rdy_tbl.(g) land lnot (1 lsl (prio land 7));
  if t.rdy_tbl.(g) = 0 then t.rdy_grp <- t.rdy_grp land lnot (1 lsl g)

let highest_ready t =
  if t.rdy_grp = 0 then None
  else begin
    let g = unmap_tbl.(t.rdy_grp) in
    Some ((g lsl 3) lor unmap_tbl.(t.rdy_tbl.(g)))
  end

let charge t svc =
  Exec.run_pinned t.pt.Port.zynq ~priv:t.pt.Port.priv
    (Array.unsafe_get t.charges (svc_index svc))

let spawn t ~name ~prio body =
  if prio < 0 || prio >= max_tasks then
    invalid_arg "Ucos.spawn: priority out of range";
  if t.by_prio.(prio) <> None then
    invalid_arg "Ucos.spawn: priority already in use";
  charge t Create;
  let task =
    { tid = prio; tname = name; prio;
      body = Some body;
      tstate = `Ready;
      delay_ticks = 0;
      waiting = None;
      timed_out = false;
      started = false;
      cont = None }
  in
  t.by_prio.(prio) <- Some task;
  set_ready t prio;
  task.tid

let current t =
  match t.cur with
  | Some task -> task
  | None -> failwith "Ucos: no current task"

let stop t = t.stopping <- true
let crash t = t.crash

let ready_task t task =
  task.tstate <- `Ready;
  task.delay_ticks <- 0;
  task.waiting <- None;
  set_ready t task.prio

(* Remove a tid from a waiter list. *)
let remove_waiter waiters tid = List.filter (fun w -> w <> tid) waiters

let detach_from_wait task =
  (match task.waiting with
   | Some s -> s.s_waiters <- remove_waiter s.s_waiters task.tid
   | None -> ());
  task.waiting <- None

let tick t =
  charge t Tick;
  Array.iter
    (function
      | Some task when task.delay_ticks > 0 ->
        task.delay_ticks <- task.delay_ticks - 1;
        if task.delay_ticks = 0 && task.tstate = `Blocked then begin
          if task.waiting <> None then begin
            detach_from_wait task;
            task.timed_out <- true
          end;
          ready_task t task
        end
      | Some _ | None -> ())
    t.by_prio

let handle_virqs t irqs =
  List.iter
    (fun irq ->
       charge t Irq;
       if irq = t.pt.Port.timer_irq then begin
         (* Recover coalesced periods so guest time tracks wall time. *)
         let n = t.pt.Port.ticks_elapsed () in
         for _ = 1 to n do
           tick t
         done
       end
       else
         match Int_table.find_opt t.irq_handlers irq with
         | Some f -> f ()
         | None -> ())
    irqs

let on_irq t irq f =
  Int_table.replace t.irq_handlers irq f;
  t.pt.Port.enable_irq irq

(* Block the calling task on semaphore [s] (state updated before the
   effect), with an optional tick timeout. Returns true on timeout. *)
let block_current t s timeout =
  let task = current t in
  task.waiting <- Some s;
  task.delay_ticks <- (match timeout with Some n when n > 0 -> n | _ -> 0);
  task.tstate <- `Blocked;
  clear_ready t task.prio;
  Effect.perform Task_block;
  if task.timed_out then begin
    task.timed_out <- false;
    true
  end
  else false

(* Hand the CPU back if a higher-priority task became ready (OSSched
   after a post). *)
let maybe_preempt t =
  match t.cur, highest_ready t with
  | Some cur, Some top when top < cur.prio -> Effect.perform Task_yield
  | _ -> ()

let compute_pinned t p =
  Exec.run_pinned t.pt.Port.zynq ~priv:t.pt.Port.priv p;
  Effect.perform Task_yield

let delay t n =
  charge t Delay;
  if n > 0 then begin
    let task = current t in
    task.delay_ticks <- n;
    task.tstate <- `Blocked;
    clear_ready t task.prio;
    Effect.perform Task_block
  end
  else Effect.perform Task_yield

let print t s =
  charge t Print;
  t.pt.Port.uart s

(* Highest-priority (numerically lowest) waiter. *)
let pop_best_waiter waiters =
  match waiters with
  | [] -> None
  | l ->
    let best = List.fold_left min (List.hd l) l in
    Some (best, remove_waiter l best)

let sem_create t n =
  charge t Create;
  if n < 0 then invalid_arg "Ucos.sem_create: negative count";
  { s_count = n; s_waiters = [] }

let sem_pend t s ?timeout () =
  charge t Sem;
  if s.s_count > 0 then begin
    s.s_count <- s.s_count - 1;
    `Ok
  end
  else begin
    let task = current t in
    s.s_waiters <- task.tid :: s.s_waiters;
    if block_current t s timeout then `Timeout else `Ok
  end

let sem_post t s =
  charge t Sem;
  (match pop_best_waiter s.s_waiters with
   | Some (tid, rest) ->
     s.s_waiters <- rest;
     (match t.by_prio.(tid) with
      | Some task -> ready_task t task
      | None -> ())
   | None -> s.s_count <- s.s_count + 1);
  maybe_preempt t

(* Task fiber driver. *)
let thandler : (unit, tstep) Effect.Deep.handler =
  { Effect.Deep.retc = (fun () -> T_done);
    exnc = (fun e -> T_crash e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
         match eff with
         | Task_yield ->
           Some (fun (k : (a, tstep) Effect.Deep.continuation) -> T_yield k)
         | Task_block ->
           Some (fun (k : (a, tstep) Effect.Deep.continuation) -> T_block k)
         | _ -> None) }

let step t task =
  t.cur <- Some task;
  let r =
    if not task.started then begin
      task.started <- true;
      match task.body with
      | Some body ->
        task.body <- None;
        Effect.Deep.match_with body () thandler
      | None -> T_done
    end
    else
      match task.cont with
      | Some k ->
        task.cont <- None;
        Effect.Deep.continue k ()
      | None -> T_done
  in
  t.cur <- None;
  match r with
  | T_yield k -> task.cont <- Some k
  | T_block k -> task.cont <- Some k
  | T_done ->
    task.tstate <- `Done;
    clear_ready t task.prio
  | T_crash e ->
    if Option.is_none t.crash then t.crash <- Some e;
    task.tstate <- `Crashed;
    clear_ready t task.prio

let all_finished t =
  Array.for_all
    (function
      | Some task -> task.tstate = `Done || task.tstate = `Crashed
      | None -> true)
    t.by_prio

let run t =
  charge t Boot;
  t.pt.Port.start_tick tick_interval;
  (match t.pt.Port.doorbell_irq with
   | Some irq -> t.pt.Port.enable_irq irq
   | None -> ());
  let rec loop () =
    if t.stopping || all_finished t then t.pt.Port.stop_tick ()
    else begin
      handle_virqs t (t.pt.Port.pause ());
      (match highest_ready t with
       | Some prio ->
         charge t Sched;
         (match t.by_prio.(prio) with
          | Some task -> step t task
          | None -> clear_ready t prio)
       | None ->
         if not (all_finished t) then
           handle_virqs t (t.pt.Port.idle_wait ()));
      loop ()
    end
  in
  loop ()
