type violation = {
  checker : string;
  boundary : string;
  detail : string;
}

exception Violation of violation

let violation_to_string v =
  Printf.sprintf "[%s] %s: %s" v.boundary v.checker v.detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some ("Invariant.Violation " ^ violation_to_string v)
    | _ -> None)

(* Each checker reads the kernel and its live PDs (listed once per
   sweep) and returns a list of problem strings; [check] tags them
   with the checker name and boundary. Checkers read kernel/platform
   state (the event-queue and vGIC clean-path proofs write only their
   own sweep stamps): they never touch the simulated clock, caches or
   memory traffic, so running them cannot perturb the simulation. *)

let check_sched kern pds =
  let sched = Kernel.sched kern in
  let problems = ref (Sched.integrity sched) in
  let note s = problems := s :: !problems in
  List.iter
    (fun (pd : Pd.t) ->
       if Pd.is_guest pd then begin
         let queued = Sched.contains sched pd in
         match pd.Pd.state with
         | Pd.Runnable ->
           if not queued then
             note
               (Printf.sprintf "pd %d runnable but not in the run queue"
                  pd.Pd.id)
         | Pd.Blocked | Pd.Dead ->
           if queued then
             note
               (Printf.sprintf "pd %d %s but in the run queue" pd.Pd.id
                  (if pd.Pd.state = Pd.Blocked then "blocked" else "dead"))
       end
       else if Sched.contains sched pd then
         note (Printf.sprintf "service pd %d must never be enqueued" pd.Pd.id))
    pds;
  List.rev !problems

let check_vgic _kern pds =
  List.concat_map (fun (pd : Pd.t) -> Vgic.self_check pd.Pd.vgic) pds

(* One id pool against the live guests: each id a guest holds
   ([id_of], -1 for none) is held by that PD in the pool, so no id has
   two holders, and the pool's live count is the number of ids held.
   O(live PDs), with no scan of the pool. *)
let audit_pool what pool id_of pds =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun x -> problems := x :: !problems) fmt in
  let held = ref 0 in
  List.iter
    (fun (pd : Pd.t) ->
       let id = id_of pd in
       if id >= 0 then begin
         incr held;
         let h = Id_pool.holder pool id in
         if h <> pd.Pd.id then
           note "pd %d holds %s %d but the pool names pd %d" pd.Pd.id what id
             h
       end)
    pds;
  if Id_pool.live pool <> !held then
    note "%d %ss live in the pool but %d held by live guests"
      (Id_pool.live pool) what !held;
  List.rev !problems

(* ASID accounting under over-commit: Kmem's pool names every holder,
   and no guest carries a reserved tag. PDs beyond the 254-tag space
   carry the sentinel 0 until the kernel steals a tag for them. *)
let check_asids kern pds =
  List.filter_map
    (fun (pd : Pd.t) ->
       let a = pd.Pd.asid in
       if Pd.is_guest pd && (a = 1 || a < 0 || a > 255) then
         Some (Printf.sprintf "guest pd %d holds reserved/out-of-range ASID %d"
                 pd.Pd.id a)
       else None)
    pds
  @ audit_pool "ASID" (Kmem.asids (Kernel.kmem kern))
      (fun pd ->
         let a = pd.Pd.asid in
         if Pd.is_guest pd && a >= 2 && a <= 255 then a else -1)
      pds

(* Guest physical windows and the save-area slots they name: a reap
   that skips the release shows at once. *)
let check_windows kern pds =
  audit_pool "window" (Kernel.windows kern)
    (fun pd -> if Pd.is_guest pd then Vcpu.slot pd.Pd.vcpu - 1 else -1)
    pds

(* ABI v2 ring conservation: every descriptor the kernel ever observed
   is completed, reclaimed on kill/reset, or still in flight on a live
   ring — nothing is lost or double-counted across world switches,
   kills and recovery. *)
let check_rings kern pds =
  let s = Kernel.ring_stats kern in
  let views = Kernel.ring_views kern in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun x -> problems := x :: !problems) fmt in
  let in_flight = ref 0 in
  List.iter
    (fun (v : Kernel.ring_view) ->
       if v.Kernel.rv_in_flight < 0 || v.Kernel.rv_in_flight > v.Kernel.rv_entries
       then
         note "pd %d ring has %d in flight on a %d-entry ring" v.Kernel.rv_pd
           v.Kernel.rv_in_flight v.Kernel.rv_entries;
       if
         not
           (List.exists (fun (p : Pd.t) -> p.Pd.id = v.Kernel.rv_pd) pds)
       then note "ring held by reaped pd %d" v.Kernel.rv_pd;
       in_flight := !in_flight + v.Kernel.rv_in_flight)
    views;
  if
    s.Kernel.rs_enqueued
    <> s.Kernel.rs_completed + s.Kernel.rs_reclaimed + !in_flight
  then
    note
      "ring conservation broken: %d enqueued but %d completed + %d reclaimed \
       + %d in flight"
      s.Kernel.rs_enqueued s.Kernel.rs_completed s.Kernel.rs_reclaimed
      !in_flight;
  List.rev !problems

let check_frames kern pds =
  let kmem = Kernel.kmem kern in
  let expected =
    Page_table.footprint_bytes (Kmem.kernel_pt kmem)
    + Kmem.retired_bytes kmem
    + List.fold_left
        (fun n (pd : Pd.t) ->
           if Pd.is_guest pd then n + Page_table.footprint_bytes pd.Pd.pt
           else n)
        0 pds
  in
  let live = Frame_alloc.live_bytes (Kmem.allocator kmem) in
  if live <> expected then
    [ Printf.sprintf
        "allocator holds %d live bytes but live translation tables account \
         for %d (leak or double free)"
        live expected ]
  else []

let check_event_queue kern _pds =
  Event_queue.self_check (Kernel.zynq kern).Zynq.queue

let check_prr_ownership kern pds =
  let hwtm = Kernel.hwtm kern in
  let prrc = (Kernel.zynq kern).Zynq.prrc in
  let mem = (Kernel.zynq kern).Zynq.mem in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let find_pd id = List.find_opt (fun (p : Pd.t) -> p.Pd.id = id) pds in
  (* Every claimed PRR must belong to a live PD that holds a matching
     interface mapping, with the hwMMU window loaded from that PD's
     registered data section. *)
  for prr_id = 0 to Prr_controller.prr_count prrc - 1 do
    match Hw_task_manager.prr_client hwtm prr_id with
    | None -> ()
    | Some cid ->
      (match find_pd cid with
       | None -> note "PRR %d claimed by reaped pd %d" prr_id cid
       | Some pd ->
         if pd.Pd.state = Pd.Dead then
           note "PRR %d claimed by dead pd %d" prr_id cid;
         if
           not
             (List.exists (fun (_, p, _) -> p = prr_id) pd.Pd.iface_mappings)
         then
           note "PRR %d claimed by pd %d without an interface mapping"
             prr_id cid
         else begin
           let prr = Prr_controller.prr prrc prr_id in
           match Hw_mmu.window prr.Prr.hw_mmu, pd.Pd.data_section with
           | None, _ ->
             note "PRR %d claimed by pd %d but its hwMMU window is clear"
               prr_id cid
           | Some (wb, wl), Some (_, dlen, dphys) ->
             if wb <> dphys || wl <> dlen then
               note
                 "PRR %d hwMMU window %x+%d disagrees with pd %d data \
                  section %x+%d"
                 prr_id wb wl cid dphys dlen
           | Some _, None ->
             note "PRR %d claimed by pd %d which has no data section"
               prr_id cid
         end)
  done;
  (* Every held interface mapping must point back at a PRR the manager
     says this client owns, and the mapped page must translate to that
     PRR's register page. *)
  List.iter
    (fun (pd : Pd.t) ->
       List.iter
         (fun (task, prr_id, vaddr) ->
            (match Hw_task_manager.prr_client hwtm prr_id with
             | Some cid when cid = pd.Pd.id -> ()
             | Some cid ->
               note
                 "pd %d maps task %d on PRR %d which the manager assigns \
                  to pd %d"
                 pd.Pd.id task prr_id cid
             | None ->
               note "pd %d maps task %d on PRR %d which is unclaimed"
                 pd.Pd.id task prr_id);
            let prr = Prr_controller.prr prrc prr_id in
            match
              Page_table.walk
                ~read:(Phys_mem.read_u32 mem)
                ~root:(Page_table.root pd.Pd.pt) ~virt:vaddr
            with
            | Some (pa, _) when Addr.page_base pa = prr.Prr.regs_base -> ()
            | Some (pa, _) ->
              note
                "pd %d interface vaddr %x translates to %x, not PRR %d's \
                 register page %x"
                pd.Pd.id vaddr pa prr_id prr.Prr.regs_base
            | None ->
              note "pd %d interface vaddr %x for PRR %d is not mapped"
                pd.Pd.id vaddr prr_id)
         pd.Pd.iface_mappings)
    pds;
  List.rev !problems

let check_mmu_context kern _pds =
  match Kernel.current kern with
  | None -> []
  | Some pd ->
    let mmu = (Kernel.zynq kern).Zynq.mmu in
    let problems = ref [] in
    let note fmt =
      Printf.ksprintf (fun s -> problems := s :: !problems) fmt
    in
    let root = Page_table.root pd.Pd.pt in
    if Mmu.ttbr mmu <> root then
      note "TTBR %x but current pd %d's table root is %x" (Mmu.ttbr mmu)
        pd.Pd.id root;
    if Mmu.asid mmu <> pd.Pd.asid then
      note "ASID %d but current pd %d holds ASID %d" (Mmu.asid mmu)
        pd.Pd.id pd.Pd.asid;
    let d = Mmu.dacr mmu in
    if Dacr.get d Kmem.dom_kernel <> Dacr.Client then
      note "kernel domain not Client while pd %d runs" pd.Pd.id;
    if Dacr.get d Kmem.dom_guest_user <> Dacr.Client then
      note "guest-user domain not Client while pd %d runs" pd.Pd.id;
    let expect =
      match Vcpu.guest_mode pd.Pd.vcpu with
      | Hyper.Gm_kernel -> Dacr.Client
      | Hyper.Gm_user -> Dacr.No_access
    in
    if Dacr.get d Kmem.dom_guest_kernel <> expect then
      note "guest-kernel domain disagrees with pd %d's %s mode" pd.Pd.id
        (match Vcpu.guest_mode pd.Pd.vcpu with
         | Hyper.Gm_kernel -> "kernel"
         | Hyper.Gm_user -> "user");
    List.rev !problems

let checkers =
  [ ("sched", check_sched);
    ("virq_conservation", check_vgic);
    ("asid_accounting", check_asids);
    ("window_accounting", check_windows);
    ("ring_conservation", check_rings);
    ("frame_accounting", check_frames);
    ("event_queue", check_event_queue);
    ("prr_ownership", check_prr_ownership);
    ("mmu_context", check_mmu_context) ]

let check kern ~boundary =
  let pds = Kernel.pds kern in
  List.concat_map
    (fun (checker, f) ->
       List.map (fun detail -> { checker; boundary; detail }) (f kern pds))
    checkers

let raise_first kern ~boundary =
  match check kern ~boundary with
  | [] -> ()
  | v :: _ -> raise (Violation v)

let attach kern =
  Kernel.set_check_hook kern
    (Some (fun boundary -> raise_first kern ~boundary))

(* --- SMP (multi-pCPU) plane --- *)

(* Checker #10: run-queue partition integrity. The placement directory
   and the per-node kernel tables must agree exactly — every directory
   entry names a live PD on that node, every live guest appears in the
   directory under its own cpu (which also rules out one id living on
   two nodes). *)
let check_partition smp =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let dir = Smp.directory smp in
  List.iter
    (fun (id, cpu) ->
       if Kernel.pd (Smp.kernel smp cpu) id = None then
         note "directory maps pd %d to cpu %d which does not host it" id cpu)
    dir;
  for cpu = 0 to Smp.pcpus smp - 1 do
    List.iter
      (fun (pd : Pd.t) ->
         if Pd.is_guest pd then
           match List.assoc_opt pd.Pd.id dir with
           | Some c when c = cpu -> ()
           | Some c ->
             note "pd %d lives on cpu %d but the directory says cpu %d"
               pd.Pd.id cpu c
           | None ->
             note "pd %d lives on cpu %d but is missing from the directory"
               pd.Pd.id cpu)
      (Kernel.pds (Smp.kernel smp cpu))
  done;
  List.rev !problems

(* Checker #11: IPI conservation. Every IPI ever posted was delivered
   or accountably dropped, and no outbox carries messages across a
   barrier. *)
let check_ipis smp =
  let s = Smp.stats smp in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun x -> problems := x :: !problems) fmt in
  if
    s.Smp.s_ipis_posted
    <> s.Smp.s_ipis_delivered + s.Smp.s_ipis_dropped
  then
    note "IPI conservation broken: %d posted but %d delivered + %d dropped"
      s.Smp.s_ipis_posted s.Smp.s_ipis_delivered s.Smp.s_ipis_dropped;
  if not (Smp.outboxes_empty smp) then
    note "outboxes not drained at a barrier boundary";
  List.rev !problems

(* Checker #12: shootdown completion. Every posted ASID shootdown was
   applied on every other pCPU — no TLB may retain translations under
   a reused tag. *)
let check_shootdowns smp =
  let s = Smp.stats smp in
  let expect = s.Smp.s_shootdowns_posted * (Smp.pcpus smp - 1) in
  if s.Smp.s_shootdowns_completed <> expect then
    [ Printf.sprintf
        "%d shootdowns posted on %d pCPUs require %d completions, saw %d"
        s.Smp.s_shootdowns_posted (Smp.pcpus smp) expect
        s.Smp.s_shootdowns_completed ]
  else []

let smp_checkers =
  [ ("smp_partition", check_partition);
    ("ipi_conservation", check_ipis);
    ("shootdown_completion", check_shootdowns) ]

(* The full SMP sweep: checkers #1-#9 on every node (checker names
   prefixed "cpuN/" so a violation pins its pCPU, and the frame/ASID
   views are audited per CPU by construction — each node has its own
   Kmem), then the cross-CPU checkers #10-#12. One pCPU is the single
   kernel: plain {!check}, unprefixed, so a one-pCPU run reports (and
   soak reproducers name) exactly what a bare kernel would. *)
let check_smp smp ~boundary =
  if Smp.pcpus smp = 1 then check (Smp.kernel smp 0) ~boundary
  else
    List.concat
      (List.init (Smp.pcpus smp) (fun cpu ->
           List.map
             (fun v ->
                { v with checker = Printf.sprintf "cpu%d/%s" cpu v.checker })
             (check (Smp.kernel smp cpu) ~boundary)))
    @ List.concat_map
        (fun (checker, f) ->
           List.map (fun detail -> { checker; boundary; detail }) (f smp))
        smp_checkers

let raise_first_smp smp ~boundary =
  match check_smp smp ~boundary with
  | [] -> ()
  | v :: _ -> raise (Violation v)

(* Per-node hooks run inside the parallel phase (each on the domain
   simulating that node — safe: they read only that node's state);
   the cross-CPU sweep runs at barriers, on the orchestrating domain.
   One pCPU has no barriers: only the kernel hook. *)
let attach_smp smp =
  for cpu = 0 to Smp.pcpus smp - 1 do
    attach (Smp.kernel smp cpu)
  done;
  if Smp.pcpus smp > 1 then
    Smp.set_barrier_hook smp
      (Some (fun () -> raise_first_smp smp ~boundary:"epoch_barrier"))
