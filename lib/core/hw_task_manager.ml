type env = {
  map_iface :
    client_id:int -> task:Bitstream.id -> vaddr:Addr.t -> Prr.t ->
    (unit, string) result;
  unmap_iface :
    client_id:int -> task:Bitstream.id -> vaddr:Addr.t -> Prr.t -> unit;
  notify_irq : client_id:int -> Prr.t -> int -> unit;
}

let shared_space =
  { map_iface = (fun ~client_id:_ ~task:_ ~vaddr:_ _ -> Ok ());
    unmap_iface = (fun ~client_id:_ ~task:_ ~vaddr:_ _ -> ());
    notify_irq = (fun ~client_id:_ _ _ -> ()) }

type alloc_result = {
  status : Hyper.hw_status;
  prr : int option;
  irq : int option;
}

type task_entry = {
  bit : Bitstream.t;
  prr_list : int list;
}

(* PRR-table row (Fig 7): current client and allocated task, plus the
   base of the client's data window and its interface vaddr as they
   were at allocation time, so a later reclaim acts on the *previous* client's window
   whatever that client has requested since. [row_client] and
   [row_task] are [none] when the row is unclaimed. *)
type prr_row = {
  prr_id : int;
  mutable row_client : int;
  mutable row_task : Bitstream.id;
  mutable row_data_base : Addr.t;
  mutable row_iface : Addr.t;
  mutable row_pinned : int option;  (* static-partition owner client *)
  (* Graceful-degradation bookkeeping. *)
  mutable row_faults : int;         (* faults on the current allocation *)
  mutable consec_failures : int;    (* consecutive faults on this region *)
  mutable quarantined_until : Cycles.t option;
  mutable retry_count : int;        (* reconfig relaunches this allocation *)
  mutable next_retry_at : Cycles.t; (* backoff deadline for the next one *)
  mutable viol_seen : int;          (* hwMMU violation baseline snapshot *)
}

(* Jailhouse-style static partitioning vs the paper's dynamic DPR
   sharing. [Dynamic] is the default and the only mode the rest of the
   kernel knew before the partition study — every path below is
   bit-identical under it. Under [Static] each PRR belongs to at most
   one client (set once at boot via [pin_prr]); allocation requests
   from any other client fail fast with [Hw_denied] after scanning
   only the requester's own rows. *)
type partition = Dynamic | Static

(* Graceful-degradation policy (durations in cycles). *)
let exec_timeout = Cycles.of_ms 5.0
let reconfig_retry_limit = 3
let retry_backoff = Cycles.of_ms 1.0
let quarantine_threshold = 3
let quarantine_penalty = Cycles.of_ms 50.0
let kill_violation_threshold = 8

type action =
  | Act_retry of { prr : int; task : Bitstream.id }
  | Act_recovered of { prr : int; task : Bitstream.id }
  | Act_gave_up of { prr : int; task : Bitstream.id }
  | Act_reset_hung of { prr : int }
  | Act_quarantine of { prr : int }
  | Act_unquarantine of { prr : int }
  | Act_kill of { client : int; violations : int }

let action_name = function
  | Act_retry _ -> "retry-reconfig"
  | Act_recovered _ -> "reconfig-recovered"
  | Act_gave_up _ -> "gave-up-reclaimed"
  | Act_reset_hung _ -> "reset-hung"
  | Act_quarantine _ -> "quarantine"
  | Act_unquarantine _ -> "unquarantine"
  | Act_kill _ -> "kill-client"

type t = {
  zynq : Zynq.t;
  env : env;
  (* [exec_pins.(n)]: the allocation bookkeeping footprint for a scan
     of [n] PRR rows, pinned once. *)
  exec_pins : Fastpath.pinned array;
  some_prr : int option array;  (* [some_prr.(i) = Some i], boxed once *)
  tasks : task_entry Int_table.t;
  rows : prr_row array;
  partition : partition;
  client_viols : int Int_table.t;
  mutable next_task_id : int;
  mutable store_next : Addr.t;
  mutable store_free : (Addr.t * int) list; (* recycled ranges, by base *)
  mutable pcap_client : int option;
  mutable requests : int;
  mutable reclaims : int;
  mutable reconfigs : int;
  mutable recoveries : int;
  mutable quarantines : int;
  mutable hang_resets : int;
  mutable retries : int;
}

let reserved_bytes = 64
let flag_offset = 0
let saved_regs_offset = 4

let none = -1

(* Manager-space footprint for the allocation bookkeeping. *)
let exec_fp ~prrs_scanned =
  let code_base, code_bytes = Klayout.mgr_main in
  let tt_base, tt_len = Klayout.mgr_task_table in
  let pt_base, pt_len = Klayout.mgr_prr_table in
  let st_base, st_len = Klayout.mgr_stack in
  { Exec.label = "hwtm_exec";
    code = { Exec.base = code_base; len = code_bytes };
    reads =
      [ { Exec.base = tt_base; len = tt_len };
        { Exec.base = pt_base; len = pt_len } ];
    writes = [ { Exec.base = st_base; len = st_len / 2 } ];
    base_cycles = Costs.mgr_exec_base + (Costs.mgr_exec_per_prr * prrs_scanned) }

let create ?(partition = Dynamic) ?(env = shared_space) zynq =
  let n = Prr_controller.prr_count zynq.Zynq.prrc in
  { zynq; env;
    exec_pins =
      Array.init (n + 1) (fun prrs_scanned ->
          Exec.pin1 (exec_fp ~prrs_scanned));
    some_prr = Array.init n Option.some;
    tasks = Int_table.create 16;
    rows = Array.init n (fun prr_id ->
        { prr_id; row_client = none; row_task = none; row_data_base = 0;
          row_iface = 0; row_pinned = None;
          row_faults = 0; consec_failures = 0; quarantined_until = None;
          retry_count = 0; next_retry_at = 0; viol_seen = 0 });
    partition;
    client_viols = Int_table.create 8;
    next_task_id = 1;
    store_next = Address_map.bitstream_store_base;
    store_free = [];
    pcap_client = None;
    requests = 0; reclaims = 0; reconfigs = 0;
    recoveries = 0; quarantines = 0; hang_resets = 0; retries = 0 }

let partition t = t.partition

let pin_prr t ~prr_id ~client_id =
  if prr_id < 0 || prr_id >= Array.length t.rows then
    Error "pin_prr: bad PRR id"
  else begin
    t.rows.(prr_id).row_pinned <- Some client_id;
    Ok ()
  end

let pinned_client t prr_id =
  if prr_id < 0 || prr_id >= Array.length t.rows then None
  else t.rows.(prr_id).row_pinned

(* Bitstream-store allocator. The store is a bump region with a
   free-list of page-aligned ranges recycled by [destroy_task]:
   first-fit from the list, falling back to the bump pointer. Every
   mutation happens only once the allocation is known to succeed, so
   failed registrations leave the manager untouched. *)
let store_alloc t size =
  let need = Addr.align_up size Addr.page_size in
  let rec take acc = function
    | [] -> None
    | (base, len) :: rest when len >= need ->
      let remainder =
        if len > need then [ (base + need, len - need) ] else []
      in
      t.store_free <- List.rev_append acc (remainder @ rest);
      Some base
    | r :: rest -> take (r :: acc) rest
  in
  match take [] t.store_free with
  | Some base -> Some base
  | None ->
    let store_end =
      Address_map.bitstream_store_base + Address_map.bitstream_store_size
    in
    if t.store_next + size > store_end then None
    else begin
      let base = t.store_next in
      t.store_next <- Addr.align_up (t.store_next + size) Addr.page_size;
      Some base
    end

(* Return a range to the free list, keeping it sorted by base and
   coalescing with abutting neighbours so churn cannot fragment the
   store into unusably small slivers. *)
let store_release t base size =
  let len = Addr.align_up size Addr.page_size in
  let merged =
    List.sort compare ((base, len) :: t.store_free)
    |> List.fold_left
      (fun acc (b, l) ->
         match acc with
         | (pb, pl) :: rest when pb + pl = b -> (pb, pl + l) :: rest
         | _ -> (b, l) :: acc)
      []
  in
  t.store_free <- List.rev merged

let try_register_task t kind =
  match Task_kind.validate kind with
  | exception Invalid_argument m -> Error m
  | () ->
    let prr_list =
      Array.to_list t.rows
      |> List.filter_map (fun row ->
          let prr = Prr_controller.prr t.zynq.Zynq.prrc row.prr_id in
          if Prr.can_host prr kind then Some row.prr_id else None)
    in
    if prr_list = [] then
      Error
        (Printf.sprintf "Hw_task_manager: no PRR can host %s"
           (Task_kind.name kind))
    else begin
      match store_alloc t (Bitstream.size_for kind) with
      | None -> Error "Hw_task_manager: bitstream store full"
      | Some store_addr ->
        let id = t.next_task_id in
        t.next_task_id <- id + 1;
        let bit = Bitstream.make ~id ~kind ~store_addr in
        Int_table.replace t.tasks id { bit; prr_list };
        Ok id
    end

let register_task t kind =
  (* Out-of-range kinds keep raising [Invalid_argument] as
     [Task_kind.validate] always did; resource failures raise
     [Failure] with the historical messages. Either way
     [try_register_task] has left the manager unmutated. *)
  Task_kind.validate kind;
  match try_register_task t kind with
  | Ok id -> id
  | Error m -> failwith m

let task_allocated t id = Array.exists (fun row -> row.row_task = id) t.rows

let destroy_task t id =
  match Int_table.find_opt t.tasks id with
  | None -> Error "Hw_task_manager: destroy of unknown task"
  | Some entry ->
    if task_allocated t id then
      Error "Hw_task_manager: destroy while task is allocated"
    else begin
      (* Task ids are never reused, so a stale copy of this bitstream
         left loaded in a PRR can no longer match any future task. *)
      Int_table.remove t.tasks id;
      store_release t entry.bit.Bitstream.store_addr
        entry.bit.Bitstream.size_bytes;
      Ok ()
    end

let task_kind t id =
  Option.map (fun e -> e.bit.Bitstream.kind) (Int_table.find_opt t.tasks id)

let task_ids t =
  List.sort compare (Int_table.fold (fun k _ acc -> k :: acc) t.tasks [])

let charge_exec t ~prrs_scanned =
  Exec.run_pinned t.zynq ~priv:true t.exec_pins.(prrs_scanned)

let charge_gp_write t =
  ignore (Hierarchy.access_uncached t.zynq.Zynq.hier);
  Clock.advance t.zynq.Zynq.clock Axi.gp_access_cycles

(* Save the reclaimed PRR's register group and the inconsistent flag
   into the previous client's data section (paper §IV-C / Fig 5). *)
let save_consistency_block t prr row =
  let base = row.row_data_base in
  Phys_mem.write_u32 t.zynq.Zynq.mem (base + flag_offset) 1l;
  ignore (Hierarchy.access t.zynq.Zynq.hier Hierarchy.Store (base + flag_offset));
  for r = 0 to Prr.Reg.count - 1 do
    let a = base + saved_regs_offset + (4 * r) in
    Phys_mem.write_u32 t.zynq.Zynq.mem a (Prr.read_reg prr r);
    ignore (Hierarchy.access t.zynq.Zynq.hier Hierarchy.Store a)
  done;
  Clock.advance t.zynq.Zynq.clock Costs.mgr_reclaim

let reclaim t row prr =
  save_consistency_block t prr row;
  (* Scrub the register group so the next client sees neither the old
     job's parameters nor a stale completion status. *)
  for r = Prr.Reg.ctrl to Prr.Reg.param do
    Prr.write_reg prr r 0l
  done;
  Prr.write_reg prr Prr.Reg.status 0l;
  t.env.unmap_iface ~client_id:row.row_client ~task:row.row_task
    ~vaddr:row.row_iface prr;
  (match prr.Prr.irq_index with
   | Some _ -> Prr_controller.release_irq t.zynq.Zynq.prrc ~prr_id:row.prr_id
   | None -> ());
  Hw_mmu.clear_window prr.Prr.hw_mmu;
  row.row_client <- none;
  row.row_task <- none;
  t.reclaims <- t.reclaims + 1

let quarantined t row =
  match row.quarantined_until with
  | Some d -> Clock.now t.zynq.Zynq.clock < d
  | None -> false

(* Static partitioning admits only the requester's own pinned rows. *)
let eligible t row ~client_id =
  match t.partition, row.row_pinned with
  | Dynamic, _ -> true
  | Static, Some owner -> owner = client_id
  | Static, None -> false

(* PRR selection (Fig 7 stage 2): among the task's suitable PRRs that
   are idle and not quarantined, prefer one already holding the task,
   then an empty one, then one to reconfigure. Precisely, in order of
   preference: loaded with the task and unclaimed; loaded with the
   task; empty and unclaimed; unclaimed; any — the first such PRR in
   [among] order. Returns the row index, or [none]. *)
let rec select_prr t ~client_id task ~among ~best ~best_rank =
  match among with
  | [] -> best
  | prr_id :: rest ->
    let row = t.rows.(prr_id) in
    let prr = Prr_controller.prr t.zynq.Zynq.prrc prr_id in
    let rank =
      if quarantined t row || not (eligible t row ~client_id) then max_int
      else
        match prr.Prr.state with
        | Prr.Busy | Prr.Reconfiguring -> max_int
        | Prr.Empty | Prr.Ready ->
          let unclaimed = row.row_client = none in
          (match prr.Prr.loaded with
           | Some b when b.Bitstream.id = task -> if unclaimed then 0 else 1
           | Some _ -> if unclaimed then 3 else 4
           | None -> if unclaimed then 2 else 4)
    in
    if rank < best_rank then
      select_prr t ~client_id task ~among:rest ~best:prr_id ~best_rank:rank
    else select_prr t ~client_id task ~among:rest ~best ~best_rank

(* The row holding [task] for [client_id], or [none]. *)
let find_row t ~client_id ~task =
  let rows = t.rows in
  let found = ref none in
  let i = ref 0 in
  while !found = none && !i < Array.length rows do
    let row = rows.(!i) in
    if row.row_task = task && row.row_client = client_id then found := !i;
    incr i
  done;
  !found

let rec count_eligible t ~client_id = function
  | [] -> 0
  | prr_id :: rest ->
    (if eligible t t.rows.(prr_id) ~client_id then 1 else 0)
    + count_eligible t ~client_id rest

(* The outcomes that name no PRR are immutable and shared. *)
let no_prr status = { status; prr = None; irq = None }
let bad_task = no_prr Hyper.Hw_bad_task
let denied = no_prr Hyper.Hw_denied
let busy = no_prr Hyper.Hw_busy
let fault = no_prr Hyper.Hw_fault

let request t ~client_id ~data_base ~data_len ~iface_vaddr ~task ~want_irq =
  t.requests <- t.requests + 1;
  match Int_table.find_opt t.tasks task with
  | None ->
    charge_exec t ~prrs_scanned:0;
    bad_task
  | Some entry ->
    (* Static partitioning narrows the scan to the requester's own
       pinned rows before any selection happens: a foreign-PRR request
       pays for scanning zero rows and is denied outright. Dynamic
       mode scans the task's full PRR list, exactly as before. *)
    let scanned = count_eligible t ~client_id entry.prr_list in
    charge_exec t ~prrs_scanned:scanned;
    (* Idempotent: the client already holds this task. *)
    let held = find_row t ~client_id ~task in
    if held <> none then begin
      let prr = Prr_controller.prr t.zynq.Zynq.prrc held in
      { status = Hyper.Hw_success; prr = t.some_prr.(held);
        irq = prr.Prr.irq_index }
    end
    else if t.partition = Static && scanned = 0 then denied
    else begin
      let chosen =
        select_prr t ~client_id task ~among:entry.prr_list ~best:none
          ~best_rank:max_int
      in
      if chosen = none then busy
      else begin
        let row = t.rows.(chosen) in
        let prr = Prr_controller.prr t.zynq.Zynq.prrc chosen in
        let needs_reconfig =
          match prr.Prr.loaded with
          | Some b -> b.Bitstream.id <> task
          | None -> true
        in
        if needs_reconfig && Pcap.busy t.zynq.Zynq.pcap then
          (* The single download channel is occupied; retry later. *)
          busy
        else begin
          (* Stage: reclaim from the previous client if any (the same
             client's other task included). *)
          if row.row_client <> none then reclaim t row prr;
          (* Stage 3: map the interface page for the caller. A bad
             interface address is the guest's fault: fail the request
             (recoverably — never the whole kernel). The row is still
             unclaimed at this point, so nothing needs rolling back. *)
          match t.env.map_iface ~client_id ~task ~vaddr:iface_vaddr prr with
          | Error _ -> fault
          | Ok () ->
            (* Stage 4: program the hwMMU with the data-section window. *)
            Hw_mmu.load_window prr.Prr.hw_mmu ~base:data_base ~size:data_len;
            charge_gp_write t;
            (* Reset the consistency flag for the new holder. *)
            Phys_mem.write_u32 t.zynq.Zynq.mem (data_base + flag_offset) 0l;
            (* Optional PL interrupt source (Fig 6). *)
            let irq =
              if want_irq then begin
                match
                  Prr_controller.allocate_irq t.zynq.Zynq.prrc ~prr_id:chosen
                with
                | Some i ->
                  t.env.notify_irq ~client_id prr i;
                  charge_gp_write t;
                  Some i
                | None -> None
              end
              else None
            in
            row.row_client <- client_id;
            row.row_task <- task;
            row.row_data_base <- data_base;
            row.row_iface <- iface_vaddr;
            row.row_faults <- 0;
            row.retry_count <- 0;
            row.next_retry_at <- 0;
            row.viol_seen <- Hw_mmu.violations prr.Prr.hw_mmu;
            (* Stage 5: launch — and do not wait for — reconfiguration. *)
            if needs_reconfig then begin
              Clock.advance t.zynq.Zynq.clock Costs.mgr_reconfig_launch;
              charge_gp_write t;
              match Pcap.launch t.zynq.Zynq.pcap entry.bit prr with
              | `Started _ ->
                t.reconfigs <- t.reconfigs + 1;
                t.pcap_client <- Some client_id;
                { status = Hyper.Hw_reconfig; prr = t.some_prr.(chosen); irq }
              | `Busy ->
                (* Raced: another launch slipped in (e.g. from a handler
                   run inside map_iface). Roll the whole allocation back
                   so the retrying caller does not find a half-claimed
                   row whose PRR was never reconfigured. *)
                row.row_client <- none;
                row.row_task <- none;
                (match irq with
                 | Some _ ->
                   Prr_controller.release_irq t.zynq.Zynq.prrc ~prr_id:chosen
                 | None -> ());
                Hw_mmu.clear_window prr.Prr.hw_mmu;
                t.env.unmap_iface ~client_id ~task ~vaddr:iface_vaddr prr;
                busy
            end
            else { status = Hyper.Hw_success; prr = t.some_prr.(chosen); irq }
        end
      end
    end

let release t ~client_id ~task =
  let i = find_row t ~client_id ~task in
  if i = none then Error "release: task not held by this client"
  else begin
    let row = t.rows.(i) in
    let prr = Prr_controller.prr t.zynq.Zynq.prrc i in
    t.env.unmap_iface ~client_id ~task ~vaddr:row.row_iface prr;
    (match prr.Prr.irq_index with
     | Some _ -> Prr_controller.release_irq t.zynq.Zynq.prrc ~prr_id:i
     | None -> ());
    Hw_mmu.clear_window prr.Prr.hw_mmu;
    charge_gp_write t;
    row.row_client <- none;
    row.row_task <- none;
    Ok ()
  end

let poll t ~client_id ~task =
  let i = find_row t ~client_id ~task in
  if i = none then (false, false)
  else begin
    let prr = Prr_controller.prr t.zynq.Zynq.prrc i in
    let ready =
      prr.Prr.state = Prr.Ready
      &&
      match prr.Prr.loaded with
      | Some b -> b.Bitstream.id = task
      | None -> false
    in
    (ready, true)
  end

let faults t ~client_id ~task =
  let i = find_row t ~client_id ~task in
  if i = none then 0 else t.rows.(i).row_faults

let prr_client t prr_id =
  let c = t.rows.(prr_id).row_client in
  if c = none then None else Some c

(* Fence off a repeatedly-failing region: reclaim it from its client
   (inconsistent flag set, so the client's next poll reports the loss)
   and refuse to allocate it until the penalty expires. *)
let quarantine_row t row prr now =
  if row.row_client <> none then reclaim t row prr;
  row.quarantined_until <- Some (now + quarantine_penalty);
  row.consec_failures <- 0;
  row.retry_count <- 0;
  t.quarantines <- t.quarantines + 1;
  Act_quarantine { prr = row.prr_id }

(* Periodic health scan (driven by the kernel's 1 ms tick). Pure reads
   when everything is healthy — fault-free runs pay nothing; recovery
   actions are charged when (and only when) they fire. *)
let health_scan t =
  let now = Clock.now t.zynq.Zynq.clock in
  let actions = ref [] in
  let push a = actions := a :: !actions in
  Array.iter
    (fun row ->
       let prr = Prr_controller.prr t.zynq.Zynq.prrc row.prr_id in
       (* Quarantine expiry: put the region back in rotation. *)
       (match row.quarantined_until with
        | Some d when now >= d ->
          row.quarantined_until <- None;
          row.consec_failures <- 0;
          t.recoveries <- t.recoveries + 1;
          push (Act_unquarantine { prr = row.prr_id })
        | _ -> ());
       (* Hung IP core: stuck busy past the execution timeout. *)
       if prr.Prr.state = Prr.Busy
          && now - prr.Prr.busy_since > exec_timeout then begin
         let obs = t.zynq.Zynq.obs in
         let sp =
           Obs.open_span obs ~component:"recovery" ~key:row.prr_id
             ~at:(Clock.now t.zynq.Zynq.clock)
         in
         ignore
           (Prr_controller.force_reset t.zynq.Zynq.prrc ~prr_id:row.prr_id);
         charge_gp_write t;
         Obs.close_span obs sp ~at:(Clock.now t.zynq.Zynq.clock);
         row.row_faults <- row.row_faults + 1;
         row.consec_failures <- row.consec_failures + 1;
         t.hang_resets <- t.hang_resets + 1;
         t.recoveries <- t.recoveries + 1;
         push (Act_reset_hung { prr = row.prr_id });
         if row.consec_failures >= quarantine_threshold then
           push (quarantine_row t row prr now)
       end;
       (* Failed reconfiguration: the row is allocated but the region
          came back Empty (corrupt/aborted download). Relaunch with
          backoff up to the retry limit, then give the region up. *)
       (let task = row.row_task in
        if row.row_client <> none && task <> none
           && prr.Prr.state = Prr.Empty then begin
          if row.retry_count < reconfig_retry_limit then begin
            if now >= row.next_retry_at
               && not (Pcap.busy t.zynq.Zynq.pcap) then
              match Int_table.find_opt t.tasks task with
              | None -> ()
              | Some entry ->
                let obs = t.zynq.Zynq.obs in
                let sp =
                  Obs.open_span obs ~component:"recovery" ~key:row.prr_id
                    ~at:(Clock.now t.zynq.Zynq.clock)
                in
                Clock.advance t.zynq.Zynq.clock Costs.mgr_reconfig_launch;
                charge_gp_write t;
                Obs.close_span obs sp ~at:(Clock.now t.zynq.Zynq.clock);
                (match Pcap.launch t.zynq.Zynq.pcap entry.bit prr with
                 | `Started _ ->
                   row.retry_count <- row.retry_count + 1;
                   row.row_faults <- row.row_faults + 1;
                   row.next_retry_at <-
                     now + (retry_backoff * (1 lsl row.retry_count));
                   t.retries <- t.retries + 1;
                   t.reconfigs <- t.reconfigs + 1;
                   t.pcap_client <- Some row.row_client;
                   push (Act_retry { prr = row.prr_id; task })
                 | `Busy -> ())
          end
          else begin
            row.consec_failures <- row.consec_failures + 1;
            let obs = t.zynq.Zynq.obs in
            let sp =
              Obs.open_span obs ~component:"recovery" ~key:row.prr_id
                ~at:(Clock.now t.zynq.Zynq.clock)
            in
            reclaim t row prr;
            Obs.close_span obs sp ~at:(Clock.now t.zynq.Zynq.clock);
            row.retry_count <- 0;
            t.recoveries <- t.recoveries + 1;
            push (Act_gave_up { prr = row.prr_id; task });
            if row.consec_failures >= quarantine_threshold then
              push (quarantine_row t row prr now)
          end
        end);
       (* A relaunch that made it: region Ready again with the task. *)
       (let task = row.row_task in
        if task <> none && row.retry_count > 0 && prr.Prr.state = Prr.Ready
           && (match prr.Prr.loaded with
               | Some b -> b.Bitstream.id = task
               | None -> false)
        then begin
          row.retry_count <- 0;
          row.consec_failures <- 0;
          t.recoveries <- t.recoveries + 1;
          push (Act_recovered { prr = row.prr_id; task })
        end);
       (* Attribute real hwMMU violations to the row's client; ask the
          kernel to kill clients that keep violating their window. *)
       (let client = row.row_client in
        if client <> none then begin
          let v = Hw_mmu.violations prr.Prr.hw_mmu in
          if v > row.viol_seen then begin
            let fresh = v - row.viol_seen in
            row.viol_seen <- v;
            let cur =
              fresh
              + (try Int_table.find t.client_viols client with Not_found -> 0)
            in
            Int_table.replace t.client_viols client cur;
            if cur >= kill_violation_threshold then begin
              Int_table.replace t.client_viols client 0;
              push (Act_kill { client; violations = cur })
            end
          end
        end)
    )
    t.rows;
  List.rev !actions

let requests t = t.requests
let reclaims t = t.reclaims
let reconfigs t = t.reconfigs
let recoveries t = t.recoveries
let quarantines t = t.quarantines
let hang_resets t = t.hang_resets
let retries t = t.retries
let pcap_client t = t.pcap_client
