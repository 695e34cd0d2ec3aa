(* Deterministic multi-pCPU orchestration.

   One full per-CPU machine ([Zynq.t] + [Kernel.t]) per simulated
   pCPU, coupled *only* at epoch barriers: during an epoch every node
   simulates independently (and in parallel across OCaml domains —
   shared-nothing, so no locks), posting cross-CPU work (message IPIs,
   ASID shootdowns) into its private outbox. At the barrier the
   orchestrating domain alone drains every outbox in pCPU order,
   applies idle-balance migration, and charges the MESI-lite coherence
   model. Because a node's epoch depends only on its own state plus
   the ordered barrier inputs, the simulation is bit-identical for any
   host core count and any [workers] setting — the quantum-barrier
   scheme of the ARM-on-ARM parallel SystemC-TLM platform.

   pcpus = 1 is pure delegation: no hooks installed, [run] is
   [Kernel.run], ids are the kernel's own — bit-identical to driving
   the kernel directly, by construction. *)

type msg =
  | Ipc of { dest : int; sender : int; payload : int array }
  | Shootdown of { asid : int }

type node = {
  cpu : int;
  z : Zynq.t;
  kern : Kernel.t;
  outbox : msg Queue.t;
  mutable last_l2_miss : int;  (* L2 miss meter at last barrier *)
  (* Posts are counted per node: the hooks run on the node's own
     domain during the parallel phase, so a shared counter would lose
     increments. {!stats} sums them. *)
  mutable ipis_posted : int;
  mutable shootdowns_posted : int;
}

type stats = {
  s_ipis_posted : int;
  s_ipis_delivered : int;
  s_ipis_dropped : int;
  s_shootdowns_posted : int;
  s_shootdowns_completed : int;
  s_migrations : int;
  s_coherence_lines : int;
  s_coherence_cycles : int;
  s_contention_cycles : int;
}

type t = {
  pcpus : int;
  epoch : Cycles.t;
  workers : int option;                (* Some budget, resolved at create;
                                          kept boxed so an epoch hands it
                                          to Parallel_sweep unallocated *)
  nodes : node array;
  coh : Coherence.t option;            (* None when pcpus = 1 *)
  directory : int Int_table.t;          (* live pd id -> owning cpu *)
  mutable next_pd : int;               (* global id space (pcpus > 1) *)
  mutable next_place : int;            (* round-robin placement cursor *)
  mutable barrier_hook : (unit -> unit) option;
  mutable ipis_delivered : int;
  mutable ipis_dropped : int;
  mutable shootdowns_completed : int;
  mutable migrations : int;
}

let pcpus t = t.pcpus

let node t cpu =
  if cpu < 0 || cpu >= t.pcpus then invalid_arg "Smp: cpu out of range";
  t.nodes.(cpu)

let kernel t cpu = (node t cpu).kern
let zynq t cpu = (node t cpu).z

(* The directory is written only by [create_vm]/[kill_vm] (host-side,
   between runs) and at barriers; during the parallel phase the
   [sh_vm_send] hooks read it concurrently from several domains, which
   is safe because nothing mutates it then. *)
let install_hooks t =
  Array.iter
    (fun n ->
       Kernel.set_smp_hooks n.kern
         (Some
            { Kernel.sh_vm_send =
                (fun ~dest ~sender ~payload ->
                   match Int_table.find_opt t.directory dest with
                   | Some owner when owner <> n.cpu ->
                     Queue.push (Ipc { dest; sender; payload }) n.outbox;
                     n.ipis_posted <- n.ipis_posted + 1;
                     true
                   | Some _ | None -> false);
              sh_asid_steal =
                (fun ~asid ->
                   Queue.push (Shootdown { asid }) n.outbox;
                   n.ipis_posted <- n.ipis_posted + 1;
                   n.shootdowns_posted <- n.shootdowns_posted + 1) }))
    t.nodes

let max_pcpus = 8

let create ?config ?(epoch = Cycles.of_ms 1.0) ?workers ~pcpus ~mk_zynq () =
  if pcpus < 1 || pcpus > max_pcpus then
    invalid_arg "Smp.create: pcpus must be in [1, 8]";
  if epoch < 1 then invalid_arg "Smp.create: epoch must be positive";
  let nodes =
    Array.init pcpus (fun cpu ->
        let z = mk_zynq cpu in
        let kern = Kernel.boot ?config z in
        { cpu; z; kern; outbox = Queue.create (); last_l2_miss = 0;
          ipis_posted = 0; shootdowns_posted = 0 })
  in
  let workers =
    match workers with
    | Some _ -> workers
    | None -> Some (Parallel_sweep.default_domains ())
  in
  let t =
    { pcpus; epoch; workers; nodes;
      coh = (if pcpus > 1 then Some (Coherence.create ~cpus:pcpus) else None);
      directory = Int_table.create 32;
      next_pd = 1; next_place = 0;
      barrier_hook = None;
      ipis_delivered = 0; ipis_dropped = 0;
      shootdowns_completed = 0; migrations = 0 }
  in
  if pcpus > 1 then install_hooks t;
  t

let set_barrier_hook t h = t.barrier_hook <- h

let register_hw_task t kind =
  let ids = Array.map (fun n -> Kernel.register_hw_task n.kern kind) t.nodes in
  Array.iter
    (fun id -> if id <> ids.(0) then failwith "Smp: bitstream id skew")
    ids;
  ids.(0)

let try_register_hw_task t kind =
  (* Mirror of [register_hw_task] for the non-raising path: probe the
     first node, and only fan out once it accepts — the id spaces stay
     in lockstep because every node sees the same sequence of
     successful registrations. *)
  match
    Hw_task_manager.try_register_task (Kernel.hwtm t.nodes.(0).kern) kind
  with
  | Error _ as e -> e
  | Ok id0 ->
    Array.iteri
      (fun i n ->
         if i > 0 then begin
           match
             Hw_task_manager.try_register_task (Kernel.hwtm n.kern) kind
           with
           | Ok id when id = id0 -> ()
           | Ok _ -> failwith "Smp: bitstream id skew"
           | Error m -> failwith ("Smp: node registration skew: " ^ m)
         end)
      t.nodes;
    Ok id0

let destroy_hw_task t id =
  (* Every node holds the same task table, but an allocation lives on
     one node only — so check hold state complex-wide first, then
     destroy everywhere or nowhere, keeping the tables in lockstep. *)
  if
    Array.exists
      (fun n -> Hw_task_manager.task_allocated (Kernel.hwtm n.kern) id)
      t.nodes
  then Error "Hw_task_manager: destroy while task is allocated"
  else begin
    let results =
      Array.map (fun n -> Kernel.destroy_hw_task n.kern id) t.nodes
    in
    Array.iter
      (fun r ->
         if (r = Ok ()) <> (results.(0) = Ok ()) then
           failwith "Smp: destroy skew across nodes")
      results;
    results.(0)
  end

let create_vm t ~name ?cpu ?(priority = 1) ?(uses_vfp = false) main =
  if t.pcpus = 1 then begin
    (* Delegation: the kernel owns the id space, exactly as without
       the facade. *)
    let pd = Kernel.create_vm t.nodes.(0).kern ~name ~priority ~uses_vfp main in
    Int_table.replace t.directory pd.Pd.id 0;
    pd
  end
  else begin
    let cpu =
      match cpu with
      | Some c ->
        if c < 0 || c >= t.pcpus then invalid_arg "Smp.create_vm: bad cpu";
        c
      | None ->
        let c = t.next_place mod t.pcpus in
        t.next_place <- t.next_place + 1;
        c
    in
    let id = t.next_pd in
    t.next_pd <- id + 1;
    let pd =
      Kernel.create_vm t.nodes.(cpu).kern ~name ~id ~priority ~uses_vfp main
    in
    Int_table.replace t.directory id cpu;
    pd
  end

let vm_cpu t id =
  match Int_table.find_opt t.directory id with
  | Some cpu when Kernel.pd t.nodes.(cpu).kern id <> None -> Some cpu
  | Some _ | None -> None

let kill_vm t id ~reason =
  match Int_table.find_opt t.directory id with
  | None -> false
  | Some cpu ->
    let ok = Kernel.kill_vm t.nodes.(cpu).kern id ~reason in
    if ok then Int_table.remove t.directory id;
    ok

let alive_guests t =
  Array.fold_left (fun acc n -> acc + Kernel.alive_guests n.kern) 0 t.nodes

(* Nodes with at least one live guest. *)
let busy_nodes t =
  Array.fold_left
    (fun acc n -> if Kernel.alive_guests n.kern > 0 then acc + 1 else acc)
    0 t.nodes

let crashes t =
  Array.fold_left (fun acc n -> acc + Kernel.crashes n.kern) 0 t.nodes

let hypercalls t =
  Array.fold_left (fun acc n -> acc + Kernel.hypercalls n.kern) 0 t.nodes

let now t =
  Array.fold_left (fun acc n -> Int.max acc (Clock.now n.z.Zynq.clock)) 0 t.nodes

let directory t =
  List.sort compare (Int_table.fold (fun id cpu acc -> (id, cpu) :: acc) t.directory [])

let outboxes_empty t =
  Array.for_all (fun n -> Queue.is_empty n.outbox) t.nodes

let stats t =
  let cl, cc, ct =
    match t.coh with
    | Some c ->
      (Coherence.lines_transferred c, Coherence.transfer_cycles c,
       Coherence.contention_cycles c)
    | None -> (0, 0, 0)
  in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 t.nodes in
  { s_ipis_posted = sum (fun n -> n.ipis_posted);
    s_ipis_delivered = t.ipis_delivered;
    s_ipis_dropped = t.ipis_dropped;
    s_shootdowns_posted = sum (fun n -> n.shootdowns_posted);
    s_shootdowns_completed = t.shootdowns_completed;
    s_migrations = t.migrations;
    s_coherence_lines = cl;
    s_coherence_cycles = cc;
    s_contention_cycles = ct }

(* --- the barrier --- *)

(* Cache lines a payload of [words] 32-bit words occupies. *)
let payload_lines words = Int.max 1 (((words * 4) + 31) / 32)

let drain_outboxes t =
  Array.iter
    (fun src ->
       while not (Queue.is_empty src.outbox) do
         match Queue.pop src.outbox with
         | Ipc { dest; sender; payload } ->
           let delivered =
             match Int_table.find_opt t.directory dest with
             | None -> false
             | Some owner ->
               let dst = t.nodes.(owner) in
               (* The payload was produced on [src]'s cache: moving it
                  is a cross-CPU line transfer, charged to the
                  consumer side. *)
               (match t.coh with
                | Some c ->
                  let cyc =
                    Coherence.transfer c
                      ~lines:(payload_lines (Array.length payload))
                  in
                  Clock.advance dst.z.Zynq.clock cyc
                | None -> ());
               Kernel.deliver_remote_ipc dst.kern ~dest ~sender ~payload
           in
           if delivered then t.ipis_delivered <- t.ipis_delivered + 1
           else t.ipis_dropped <- t.ipis_dropped + 1
         | Shootdown { asid } ->
           Array.iter
             (fun n' ->
                if n' != src then begin
                  Kernel.apply_shootdown n'.kern ~asid;
                  t.shootdowns_completed <- t.shootdowns_completed + 1
                end)
             t.nodes;
           t.ipis_delivered <- t.ipis_delivered + 1
       done)
    t.nodes

let refresh_directory t =
  let stale =
    Int_table.fold
      (fun id cpu acc ->
         if Kernel.pd t.nodes.(cpu).kern id = None then id :: acc else acc)
      t.directory []
  in
  List.iter (Int_table.remove t.directory) stale

(* Idle-balance work stealing: while some run queue is >= 2 entries
   longer than the shortest one, the idle pCPU steals the victim
   furthest from dispatch on the longest queue — restricted to
   never-started VMs, the only ones with no machine state pinning them
   to their board. Ties break to the lowest cpu; candidates are
   scanned in deterministic [Sched.members] order. A pCPU with no room
   for another VM ([Kernel.can_admit]) takes none. *)
let balance t =
  let counts =
    Array.map (fun n -> Sched.count (Kernel.sched n.kern)) t.nodes
  in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let hi = ref 0 and lo = ref 0 in
    Array.iteri
      (fun i c ->
         if c > counts.(!hi) then hi := i;
         if c < counts.(!lo) then lo := i)
      counts;
    if counts.(!hi) - counts.(!lo) >= 2 && Kernel.can_admit t.nodes.(!lo).kern
    then begin
      let src = t.nodes.(!hi) and dst = t.nodes.(!lo) in
      let candidates = List.rev (Sched.members (Kernel.sched src.kern)) in
      let rec steal = function
        | [] -> ()
        | (pd : Pd.t) :: rest ->
          (match Kernel.retract_vm src.kern pd.Pd.id with
           | None -> steal rest
           | Some (name, priority, uses_vfp, main) ->
             (* Reschedule IPI + descriptor hand-off, both sides. *)
             Clock.advance src.z.Zynq.clock
               (Costs.vm_migrate + Costs.ipi_send);
             Clock.advance dst.z.Zynq.clock
               (Costs.vm_migrate + Costs.ipi_receive);
             ignore
               (Kernel.create_vm dst.kern ~name ~id:pd.Pd.id ~priority
                  ~uses_vfp main);
             Int_table.replace t.directory pd.Pd.id dst.cpu;
             t.migrations <- t.migrations + 1;
             counts.(src.cpu) <- counts.(src.cpu) - 1;
             counts.(dst.cpu) <- counts.(dst.cpu) + 1;
             continue_ := true)
      in
      steal candidates
    end
  done

let charge_contention t =
  match t.coh with
  | None -> ()
  | Some c ->
    let deltas =
      Array.map
        (fun n ->
           let m = Cache.misses (Hierarchy.l2 n.z.Zynq.hier) in
           let d = m - n.last_l2_miss in
           n.last_l2_miss <- m;
           d)
        t.nodes
    in
    let penalties = Coherence.epoch c ~l2_misses:deltas in
    Array.iteri
      (fun i p -> if p > 0 then Clock.advance t.nodes.(i).z.Zynq.clock p)
      penalties

let barrier t =
  drain_outboxes t;
  refresh_directory t;
  balance t;
  charge_contention t;
  match t.barrier_hook with None -> () | Some f -> f ()

(* --- the epoch loop --- *)

let min_clock t =
  Array.fold_left
    (fun acc n -> Int.min acc (Clock.now n.z.Zynq.clock))
    max_int t.nodes

(* The budget of an epoch with at most one busy node: boxed once. *)
let inline = Some 1

(* An epoch's budget is a property of the simulated state alone. With
   at most one node running guests, the idle nodes only step their
   clocks and event queues forward, and handing them to a worker
   would cost a pool round trip and a spinning barrier for nothing:
   the epoch runs on the calling domain. Otherwise the nodes go to
   the pool. The nodes are shared-nothing during the phase, so the
   budget never affects results; it only bounds host parallelism. *)
let run t ~until =
  if t.pcpus = 1 then begin
    Kernel.run t.nodes.(0).kern ~until;
    refresh_directory t
  end
  else begin
    let stop = ref false in
    while not !stop do
      let mc = min_clock t in
      let busy = busy_nodes t in
      if mc >= until || busy = 0 then stop := true
      else begin
        let epoch_end = Int.min until (((mc / t.epoch) + 1) * t.epoch) in
        Parallel_sweep.iter
          ?domains:(if busy = 1 then inline else t.workers)
          (fun n ->
             if Clock.now n.z.Zynq.clock < epoch_end then
               Kernel.run_epoch n.kern ~until:epoch_end)
          t.nodes;
        barrier t
      end
    done
  end

let run_for t d = run t ~until:(now t + d)
