type task_id = int

type pend_result = [ `Ok | `Timeout ]

type _ Effect.t += Task_yield : unit Effect.t | Task_block : unit Effect.t

type tstep =
  | T_yield of (unit, tstep) Effect.Deep.continuation
  | T_block of (unit, tstep) Effect.Deep.continuation
  | T_done
  | T_crash of exn

type wait_obj =
  | W_sem of sem
  | W_mutex of mutex
  | W_mbox of mbox
  | W_q of queue
  | W_flag of flag_group

and sem = { mutable s_count : int; mutable s_waiters : int list }

and flag_waiter = {
  fw_tid : int;
  fw_mask : int;
  fw_all : bool;
  fw_consume : bool;
}

and flag_group = {
  mutable f_value : int;
  mutable f_waiters : flag_waiter list;
}

and mutex = { mutable m_owner : int option; mutable m_waiters : int list }

and mbox = { mutable b_slot : int option; mutable b_waiters : int list }

and queue = {
  q_cap : int;
  q_ring : int Queue.t;
  mutable q_waiters : int list;
}

type task = {
  tid : int;
  tname : string;
  prio : int;
  mutable body : (unit -> unit) option;
  mutable tstate : [ `Ready | `Blocked | `Done | `Crashed ];
  mutable delay_ticks : int;       (* 0 = no pending delay/timeout *)
  mutable waiting : wait_obj option;
  mutable timed_out : bool;
  mutable xfer : int option;       (* value handed over by a post *)
  mutable started : bool;
  mutable cont : (unit, tstep) Effect.Deep.continuation option;
}

type t = {
  pt : Port.t;
  charges : Fastpath.pinned array;  (* by [svc_index] *)
  by_prio : task option array;      (* index = priority *)
  rdy_tbl : int array;              (* 8 groups of 8 bits *)
  mutable rdy_grp : int;
  mutable tick_count : int;
  mutable cur : task option;
  mutable stopping : bool;
  mutable spawned : int;
  mutable finished : int;
  mutable crashed : int;
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
type svc =
  | Boot | Sched | Tick | Delay | Sem | Mutex | Mbox | Queue | Irq | Create
  | Print | Flag | Mem

(* Label, code offset, code bytes, base cycles. *)
let svc_spec = function
  | Boot -> ("boot", 0x0000, 768, 300)
  | Sched -> ("sched", 0x0400, 224, 25)
  | Tick -> ("tick", 0x0600, 320, 40)
  | Delay -> ("delay", 0x0800, 160, 15)
  | Sem -> ("sem", 0x0A00, 224, 20)
  | Mutex -> ("mutex", 0x0C00, 224, 20)
  | Mbox -> ("mbox", 0x0E00, 192, 20)
  | Queue -> ("queue", 0x1000, 256, 25)
  | Irq -> ("irq", 0x1200, 224, 20)
  | Create -> ("create", 0x1400, 288, 40)
  | Print -> ("print", 0x1600, 128, 10)
  | Flag -> ("flag", 0x1800, 256, 20)
  | Mem -> ("mem", 0x1A00, 192, 15)

let svc_index = function
  | Boot -> 0 | Sched -> 1 | Tick -> 2 | Delay -> 3 | Sem -> 4 | Mutex -> 5
  | Mbox -> 6 | Queue -> 7 | Irq -> 8 | Create -> 9 | Print -> 10
  | Flag -> 11 | Mem -> 12

(* Every service, in [svc_index] order. *)
let services =
  [| Boot; Sched; Tick; Delay; Sem; Mutex; Mbox; Queue; Irq; Create; Print;
     Flag; Mem |]

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
    tick_count = 0;
    cur = None;
    stopping = false;
    spawned = 0;
    finished = 0;
    crashed = 0;
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
      xfer = None;
      started = false;
      cont = None }
  in
  t.by_prio.(prio) <- Some task;
  t.spawned <- t.spawned + 1;
  set_ready t prio;
  task.tid

let current t =
  match t.cur with
  | Some task -> task
  | None -> failwith "Ucos: no current task"

let ticks t = t.tick_count
let tasks_finished t = t.finished
let tasks_crashed t = t.crashed
let stop t = t.stopping <- true

let ready_task t task =
  task.tstate <- `Ready;
  task.delay_ticks <- 0;
  task.waiting <- None;
  set_ready t task.prio

(* Remove a tid from a waiter list. *)
let remove_waiter waiters tid = List.filter (fun w -> w <> tid) waiters

let detach_from_wait task =
  (match task.waiting with
   | Some (W_sem s) -> s.s_waiters <- remove_waiter s.s_waiters task.tid
   | Some (W_mutex m) -> m.m_waiters <- remove_waiter m.m_waiters task.tid
   | Some (W_mbox b) -> b.b_waiters <- remove_waiter b.b_waiters task.tid
   | Some (W_q q) -> q.q_waiters <- remove_waiter q.q_waiters task.tid
   | Some (W_flag g) ->
     g.f_waiters <- List.filter (fun w -> w.fw_tid <> task.tid) g.f_waiters
   | None -> ());
  task.waiting <- None

let tick t =
  charge t Tick;
  t.tick_count <- t.tick_count + 1;
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

(* Block the calling task on [obj] (state updated before the effect),
   with an optional tick timeout. Returns true on timeout. *)
let block_current t obj timeout =
  let task = current t in
  task.waiting <- Some obj;
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

let yield t =
  charge t Sched;
  Effect.perform Task_yield

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

let time_get t =
  charge t Delay;
  t.tick_count

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
    if block_current t (W_sem s) timeout then `Timeout else `Ok
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

let mutex_create t =
  charge t Create;
  { m_owner = None; m_waiters = [] }

let rec mutex_lock t m =
  charge t Mutex;
  let task = current t in
  match m.m_owner with
  | None -> m.m_owner <- Some task.tid
  | Some owner when owner = task.tid ->
    invalid_arg "Ucos.mutex_lock: already held by caller"
  | Some _ ->
    m.m_waiters <- task.tid :: m.m_waiters;
    ignore (block_current t (W_mutex m) None);
    (* Woken by unlock: the lock was handed directly to us, unless a
       rare race gave it elsewhere; retry in that case. *)
    if m.m_owner <> Some task.tid then mutex_lock t m

let mutex_unlock t m =
  charge t Mutex;
  let task = current t in
  if m.m_owner <> Some task.tid then
    invalid_arg "Ucos.mutex_unlock: caller does not hold the mutex";
  (match pop_best_waiter m.m_waiters with
   | Some (tid, rest) ->
     m.m_waiters <- rest;
     m.m_owner <- Some tid;
     (match t.by_prio.(tid) with
      | Some w -> ready_task t w
      | None -> ())
   | None -> m.m_owner <- None);
  maybe_preempt t

let mbox_create t =
  charge t Create;
  { b_slot = None; b_waiters = [] }

let mbox_post t b v =
  charge t Mbox;
  match pop_best_waiter b.b_waiters with
  | Some (tid, rest) ->
    b.b_waiters <- rest;
    (match t.by_prio.(tid) with
     | Some w ->
       w.xfer <- Some v;
       ready_task t w
     | None -> ());
    maybe_preempt t;
    Ok ()
  | None ->
    if b.b_slot <> None then Error "mbox full"
    else begin
      b.b_slot <- Some v;
      Ok ()
    end

let mbox_pend t b ?timeout () =
  charge t Mbox;
  match b.b_slot with
  | Some v ->
    b.b_slot <- None;
    Some v
  | None ->
    let task = current t in
    b.b_waiters <- task.tid :: b.b_waiters;
    if block_current t (W_mbox b) timeout then None
    else begin
      let v = task.xfer in
      task.xfer <- None;
      v
    end

let q_create t cap =
  charge t Create;
  if cap <= 0 then invalid_arg "Ucos.q_create: capacity must be positive";
  { q_cap = cap; q_ring = Queue.create (); q_waiters = [] }

let q_post t q v =
  charge t Queue;
  match pop_best_waiter q.q_waiters with
  | Some (tid, rest) ->
    q.q_waiters <- rest;
    (match t.by_prio.(tid) with
     | Some w ->
       w.xfer <- Some v;
       ready_task t w
     | None -> ());
    maybe_preempt t;
    Ok ()
  | None ->
    if Queue.length q.q_ring >= q.q_cap then Error "queue full"
    else begin
      Queue.push v q.q_ring;
      Ok ()
    end

let q_pend t q ?timeout () =
  charge t Queue;
  match Queue.take_opt q.q_ring with
  | Some v -> Some v
  | None ->
    let task = current t in
    q.q_waiters <- task.tid :: q.q_waiters;
    if block_current t (W_q q) timeout then None
    else begin
      let v = task.xfer in
      task.xfer <- None;
      v
    end

(* --- Event flags (the OSFlag services) --- *)

let flag_satisfied value w =
  if w.fw_all then value land w.fw_mask = w.fw_mask
  else value land w.fw_mask <> 0

let flag_create t initial =
  charge t Create;
  { f_value = initial; f_waiters = [] }

(* Wake every waiter whose condition now holds, honouring consumption
   in priority order (as OS_FLAG_CONSUME does). *)
let flag_wake t g =
  let by_prio = List.sort (fun a b -> compare a.fw_tid b.fw_tid) g.f_waiters in
  List.iter
    (fun w ->
       if flag_satisfied g.f_value w then begin
         g.f_waiters <- List.filter (fun x -> x.fw_tid <> w.fw_tid) g.f_waiters;
         (match t.by_prio.(w.fw_tid) with
          | Some task ->
            task.xfer <- Some g.f_value;
            ready_task t task
          | None -> ());
         if w.fw_consume then g.f_value <- g.f_value land lnot w.fw_mask
       end)
    by_prio

let flag_post t g ~set =
  charge t Flag;
  g.f_value <- g.f_value lor set;
  flag_wake t g;
  maybe_preempt t

let flags t g =
  charge t Flag;
  g.f_value

let flag_pend t g ~mask ?(wait_all = true) ?(consume = false) ?timeout () =
  charge t Flag;
  let task = current t in
  let w = { fw_tid = task.tid; fw_mask = mask; fw_all = wait_all;
            fw_consume = consume } in
  if flag_satisfied g.f_value w then begin
    let v = g.f_value in
    if consume then g.f_value <- g.f_value land lnot mask;
    Some v
  end
  else begin
    g.f_waiters <- w :: g.f_waiters;
    if block_current t (W_flag g) timeout then None
    else begin
      let v = task.xfer in
      task.xfer <- None;
      v
    end
  end

(* --- Memory partitions (the OSMem services) --- *)

type mem_partition = {
  mp_base : Addr.t;
  mp_block_size : int;
  mp_blocks : int;
  mutable mp_free : Addr.t list;
}

let mem_create t ~base ~blocks ~block_size =
  charge t Create;
  if blocks <= 0 || block_size <= 0 then
    invalid_arg "Ucos.mem_create: bad geometry";
  if not (Addr.is_aligned base 16) || block_size land 15 <> 0 then
    invalid_arg "Ucos.mem_create: 16-byte alignment required";
  { mp_base = base;
    mp_block_size = block_size;
    mp_blocks = blocks;
    mp_free = List.init blocks (fun i -> base + (i * block_size)) }

let mem_get t p =
  charge t Mem;
  match p.mp_free with
  | [] -> None
  | b :: rest ->
    p.mp_free <- rest;
    Some b

let mem_put t p a =
  charge t Mem;
  let off = a - p.mp_base in
  if off < 0 || off >= p.mp_blocks * p.mp_block_size
     || off mod p.mp_block_size <> 0
  then invalid_arg "Ucos.mem_put: not a block of this partition";
  if List.mem a p.mp_free then invalid_arg "Ucos.mem_put: double free";
  p.mp_free <- a :: p.mp_free

let mem_free_blocks t p =
  charge t Mem;
  List.length p.mp_free

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

let log = Logs.Src.create "ucos" ~doc:"uC/OS-II guest kernel"

module Log = (val Logs.src_log log)

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
    clear_ready t task.prio;
    t.finished <- t.finished + 1
  | T_crash e ->
    Log.warn (fun m ->
        m "%s: task %s crashed: %s" t.pt.Port.name task.tname
          (Printexc.to_string e));
    task.tstate <- `Crashed;
    clear_ready t task.prio;
    t.crashed <- t.crashed + 1

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
