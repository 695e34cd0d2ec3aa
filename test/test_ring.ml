(* ABI v2 descriptor rings: doorbell edge cases, conservation under
   kill, v1/v2 protocol equivalence, O(1) fleet scaling and the
   density sweep's transition-ratio acceptance gate. *)

let ci = Alcotest.int
let cb = Alcotest.bool

let run_for kern d =
  Kernel.run kern ~until:(Clock.now (Kernel.zynq kern).Zynq.clock + d)

let boot_with_tasks () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let tasks =
    Array.map (Kernel.register_hw_task kern)
      [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]
  in
  (z, kern, tasks)

(* One request descriptor per task (tags 1..n), one doorbell, then the
   completions that arrived: (descriptors accepted, completions). *)
let submit p r tasks =
  let accepted =
    List.filteri
      (fun i task -> Ring_api.enqueue p r ~op:`Request ~task ~tag:(i + 1) ())
      tasks
  in
  Result.map
    (fun _ -> (List.length accepted, Ring_api.drain_completions p r))
    (Ring_api.doorbell p r)

(* ------------------------------------------------------------------ *)
(* Round trip: a batch of requests through one doorbell, completions   *)
(* drained guest-side, totals conserved.                               *)

let test_ring_roundtrip () =
  let _z, kern, tasks = boot_with_tasks () in
  let statuses = ref [] in
  ignore
    (Kernel.create_vm kern ~name:"ring" (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           (match
              submit p r [ tasks.(0); tasks.(1) ]
            with
            | Error e -> Alcotest.failf "submit: %s" e
            | Ok (accepted, cqes) ->
              Alcotest.check ci "both descriptors accepted" 2 accepted;
              statuses :=
                List.map (fun (c : Ring_api.cqe) -> c.Ring_api.status) cqes)));
  run_for kern (Cycles.of_ms 5.0);
  Alcotest.check ci "two completions drained" 2 (List.length !statuses);
  (* Both jobs hit the PCAP in one batch, so the second may be busy;
     what matters is that every descriptor got a real manager verdict
     and at least one won a PRR. *)
  List.iter
    (fun s ->
       Alcotest.check cb
         (Printf.sprintf "valid completion status (%d)" s)
         true
         (s = Ring_api.status_success || s = Ring_api.status_reconfig
          || s = Ring_api.status_busy))
    !statuses;
  Alcotest.check cb "the first job won a PRR" true
    (match !statuses with
     | s :: _ -> s = Ring_api.status_success || s = Ring_api.status_reconfig
     | [] -> false);
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "enqueued" 2 rs.Kernel.rs_enqueued;
  Alcotest.check ci "completed" 2 rs.Kernel.rs_completed;
  Alcotest.check ci "nothing reclaimed" 0 rs.Kernel.rs_reclaimed;
  Alcotest.check ci "one doorbell" 1 rs.Kernel.rs_doorbells;
  Alcotest.check ci "batch of two" 2 rs.Kernel.rs_max_batch;
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

(* ------------------------------------------------------------------ *)
(* A doorbell with nothing published is explicitly cheap and counted.  *)

let test_empty_doorbell () =
  let _z, kern, _tasks = boot_with_tasks () in
  let drained = ref (-1) in
  ignore
    (Kernel.create_vm kern ~name:"empty" (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           (match Ring_api.doorbell p r with
            | Ok n -> drained := n
            | Error e -> Alcotest.failf "doorbell: %s" e)));
  run_for kern (Cycles.of_ms 2.0);
  Alcotest.check ci "nothing drained" 0 !drained;
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "empty doorbell counted" 1 rs.Kernel.rs_empty_doorbells;
  Alcotest.check ci "doorbell counted" 1 rs.Kernel.rs_doorbells

(* ------------------------------------------------------------------ *)
(* CQ backpressure: with the completion ring full, a doorbell accepts  *)
(* the published descriptors but drains none; killing the guest then   *)
(* reclaims the in-flight batch, keeping conservation closed.          *)

let test_backpressure_then_kill_reclaims () =
  let _z, kern, tasks = boot_with_tasks () in
  let phase = ref 0 in
  let full_rejected = ref false in
  let pd =
    Kernel.create_vm kern ~name:"bp" (fun genv ->
        let p = Port.paravirt genv in
        match Ring_api.setup p ~entries:4 ~cvirq_budget:0 () with
        | Error e -> Alcotest.failf "setup: %s" e
        | Ok r ->
          let enq tag =
            Ring_api.enqueue p r ~op:`Request ~task:tasks.(0) ~tag ()
          in
          for tag = 1 to 4 do
            ignore (enq tag)
          done;
          (* SQ full: the fifth descriptor must be refused. *)
          full_rejected := not (enq 5);
          ignore (Ring_api.doorbell p r);
          (* CQ now holds 4 unconsumed completions. Publish four more
             requests; this doorbell finds zero CQ room and leaves
             them all in flight. *)
          for tag = 5 to 8 do
            ignore (enq tag)
          done;
          ignore (Ring_api.doorbell p r);
          phase := 1;
          while true do
            ignore (Hyper.pause ())
          done)
  in
  let budget = ref 100 in
  while !phase = 0 && !budget > 0 do
    run_for kern (Cycles.of_ms 1.0);
    decr budget
  done;
  Alcotest.check ci "guest reached the stalled batch" 1 !phase;
  Alcotest.check cb "full submission ring rejects the enqueue" true
    !full_rejected;
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "eight descriptors observed" 8 rs.Kernel.rs_enqueued;
  Alcotest.check ci "only the first batch completed" 4 rs.Kernel.rs_completed;
  Alcotest.check ci "backpressured doorbell counted empty" 1
    rs.Kernel.rs_empty_doorbells;
  Alcotest.(check (list string)) "conserved with a batch in flight" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"));
  Alcotest.check cb "kill mid-batch" true
    (Kernel.kill_vm kern pd.Pd.id ~reason:"test");
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "in-flight batch reclaimed" 4 rs.Kernel.rs_reclaimed;
  Alcotest.check ci "totals closed" rs.Kernel.rs_enqueued
    (rs.Kernel.rs_completed + rs.Kernel.rs_reclaimed);
  Alcotest.(check (list string)) "conserved after the kill" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

(* Re-setup of a live ring whose second batch is stalled on CQ
   backpressure: the kernel forfeits the stalled descriptors as
   reclaimed, conservation holds, and the fresh ring drains. *)
let test_resetup_forfeits_in_flight () =
  let _z, kern, tasks = boot_with_tasks () in
  let phase = ref 0 in
  let fresh = ref (Error "not reached") in
  let _pd =
    Kernel.create_vm kern ~name:"resetup" (fun genv ->
        let p = Port.paravirt genv in
        let setup () =
          match Ring_api.setup p ~entries:4 ~cvirq_budget:0 () with
          | Error e -> Alcotest.failf "setup: %s" e
          | Ok r -> r
        in
        let enq r op tag =
          ignore (Ring_api.enqueue p r ~op ~task:tasks.(0) ~tag ())
        in
        let r = setup () in
        for tag = 1 to 8 do
          enq r `Request tag;
          (* The second doorbell finds the CQ full. *)
          if tag mod 4 = 0 then ignore (Ring_api.doorbell p r)
        done;
        let r = setup () in
        enq r `Release 9;
        fresh := Ring_api.doorbell p r;
        phase := 1;
        while true do
          ignore (Hyper.pause ())
        done)
  in
  let budget = ref 100 in
  while !phase = 0 && !budget > 0 do
    run_for kern (Cycles.of_ms 1.0);
    decr budget
  done;
  Alcotest.check ci "guest re-set up its ring" 1 !phase;
  Alcotest.(check (result int string)) "the fresh ring drains" (Ok 1) !fresh;
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "stalled batch forfeited" 4 rs.Kernel.rs_reclaimed;
  Alcotest.check ci "totals closed" rs.Kernel.rs_enqueued
    (rs.Kernel.rs_completed + rs.Kernel.rs_reclaimed);
  Alcotest.(check (list string)) "conserved after the re-setup" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

(* ------------------------------------------------------------------ *)
(* A forged CQ consumption head, ahead of the kernel's completion tail *)
(* or more than [entries] behind it, is a typed doorbell error: no     *)
(* host exception, the ring stays usable, and an honest guest beside   *)
(* it completes its batch.                                             *)

let test_forged_cq_head pcpus () =
  let smp = Fleet.boot ~pcpus () in
  let task = Smp.register_hw_task smp (Task_kind.Qam 4) in
  let verdicts = ref [] in
  ignore
    (Smp.create_vm smp ~name:"forger" ~cpu:0 (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           ignore (Ring_api.enqueue p r ~op:`Request ~task ~tag:1 ());
           List.iter
             (fun head ->
                Zynq.vwrite_word p.Port.zynq ~priv:p.Port.priv
                  (r.Ring_api.cq + 4) (head land 0xFFFF_FFFF);
                verdicts := Ring_api.doorbell p r :: !verdicts)
             (* 5 ahead of the kernel's head (0), 9 behind it, then
                the honest head again. *)
             [ 5; -9; 0 ]));
  let honest = ref [] in
  ignore
    (Smp.create_vm smp ~name:"honest" ~cpu:0 (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           (match submit p r [ task; task ] with
            | Ok (_, cqes) -> honest := cqes
            | Error e -> Alcotest.failf "honest submit: %s" e)));
  Smp.run_for smp (Cycles.of_ms 5.0);
  Alcotest.(check (list (result int string)))
    "forged heads refused, the honest head drains"
    [ Error "ring: bad completion head"; Error "ring: bad completion head";
      Ok 1 ]
    (List.rev !verdicts);
  Alcotest.(check (list int)) "the honest guest got both completions"
    [ 1; 2 ]
    (List.map (fun (c : Ring_api.cqe) -> c.Ring_api.tag) !honest);
  List.iter
    (fun (c : Ring_api.cqe) ->
       Alcotest.check cb "a manager verdict" true
         (c.Ring_api.status = Ring_api.status_success
          || c.Ring_api.status = Ring_api.status_reconfig
          || c.Ring_api.status = Ring_api.status_busy))
    !honest;
  Alcotest.check ci "no crashes" 0 (Smp.crashes smp);
  Alcotest.check ci "every descriptor completed" 3
    (Fleet.sum_kernels smp (fun k -> (Kernel.ring_stats k).Kernel.rs_completed));
  for cpu = 0 to pcpus - 1 do
    Alcotest.(check (list string)) "invariants hold" []
      (List.map Invariant.violation_to_string
         (Invariant.check (Smp.kernel smp cpu) ~boundary:"test"))
  done

(* ------------------------------------------------------------------ *)
(* Completion-vIRQ moderation: ceil(batch / budget) injections.        *)

let test_virq_moderation () =
  let _z, kern, tasks = boot_with_tasks () in
  ignore
    (Kernel.create_vm kern ~name:"virq" (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:2 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           for tag = 1 to 5 do
             ignore
               (Ring_api.enqueue p r ~op:`Request
                  ~task:tasks.(tag mod Array.length tasks) ~tag ())
           done;
           ignore (Ring_api.doorbell p r)));
  run_for kern (Cycles.of_ms 5.0);
  let rs = Kernel.ring_stats kern in
  Alcotest.check ci "batch of five" 5 rs.Kernel.rs_max_batch;
  Alcotest.check ci "ceil(5/2) moderated vIRQs" 3 rs.Kernel.rs_virqs

(* ------------------------------------------------------------------ *)
(* v1/v2 equivalence: the same job sequence driven through per-job     *)
(* hypercalls and through ring descriptors produces identical hwtm     *)
(* job events (operation, task, status) — both ABIs share exec_job /   *)
(* exec_release, and this pins it from the outside.                    *)

let hwtm_jobs tr =
  List.filter
    (fun (e : Ktrace.event) -> e.category = "hwtm" && e.name = "job")
    (Ktrace.events tr)

let job_events tr =
  List.map (fun (e : Ktrace.event) -> e.Ktrace.fields) (hwtm_jobs tr)

let job_sequence tasks = [ tasks.(0); tasks.(1); tasks.(0); tasks.(2) ]

(* Poll the status hypercall until the PRR is ready, so both drivers
   release at a deterministic point in the task's life cycle (the
   reconfig download finishes before the release, on either ABI). *)
let wait_ready task =
  let rec go budget =
    if budget = 0 then Alcotest.fail "task never became ready";
    match Hyper.hypercall (Hyper.Hw_task_status { task }) with
    | Hyper.R_status { prr_ready = true; _ } -> ()
    | _ ->
      ignore (Hyper.pause ());
      go (budget - 1)
  in
  go 100_000

let drive_v1 tasks _genv =
  List.iter
    (fun task ->
       match
         Hyper.hypercall
           (Hyper.Hw_task_request
              { task;
                iface_vaddr = Guest_layout.default_iface_vaddr 0;
                data_vaddr = Guest_layout.default_data_section;
                data_len = Guest_layout.default_data_section_len;
                want_irq = false })
       with
       | Hyper.R_hw { status = Hyper.Hw_success | Hyper.Hw_reconfig; _ } ->
         wait_ready task;
         ignore (Hyper.hypercall (Hyper.Hw_task_release { task }))
       | _ -> ())
    (job_sequence tasks)

let drive_v2 tasks genv =
  let p = Port.paravirt genv in
  match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok r ->
    List.iter
      (fun task ->
         match submit p r [ task ] with
         | Error e -> Alcotest.failf "submit: %s" e
         | Ok (_, [ c ])
           when c.Ring_api.status = Ring_api.status_success
                || c.Ring_api.status = Ring_api.status_reconfig ->
           wait_ready task;
           ignore (Ring_api.enqueue p r ~op:`Release ~task ~tag:99 ());
           ignore (Ring_api.doorbell p r);
           ignore (Ring_api.drain_completions p r)
         | Ok _ -> ())
      (job_sequence tasks)

let traced_run drive =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let tasks =
    Array.map (Kernel.register_hw_task kern)
      [| Task_kind.Qam 4; Task_kind.Qam 16; Task_kind.Fft 256 |]
  in
  let tr = Ktrace.create ~capacity:16384 in
  Kernel.set_trace kern (Some tr);
  ignore (Kernel.create_vm kern ~name:"drv" (drive tasks));
  run_for kern (Cycles.of_ms 100.0);
  job_events tr

let field_to_string = function
  | name, Ktrace.Int i -> Printf.sprintf "%s=%d" name i
  | name, Ktrace.Str s -> Printf.sprintf "%s=%s" name s
  | name, Ktrace.Bool b -> Printf.sprintf "%s=%b" name b

let test_v1_v2_equivalence () =
  let v1 = traced_run drive_v1 in
  let v2 = traced_run drive_v2 in
  let render evs =
    List.map (fun fs -> String.concat " " (List.map field_to_string fs)) evs
  in
  (* 4 jobs, each a request + a release. *)
  Alcotest.check ci "v1 ran every job" 8 (List.length v1);
  Alcotest.(check (list string)) "identical job streams" (render v1)
    (render v2)

(* ------------------------------------------------------------------ *)
(* Fleet scaling: 256 guests fill every window, and a window freed by  *)
(* killing them all is taken again. Each create is one pool take for   *)
(* its tag and one for its window (a queue pop or a bump), whatever    *)
(* the population.                                                     *)

let idle_guest _genv =
  while true do
    ignore (Hyper.pause ())
  done

let test_create_256 () =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let n = Address_map.guest_slot_count in
  Alcotest.check cb "window space for 256 guests" true (n >= 256);
  let pds =
    Array.init 256 (fun i ->
        (Kernel.create_vm kern ~name:(Printf.sprintf "f%d" i) idle_guest)
          .Pd.id)
  in
  Alcotest.check ci "256 alive" 256 (Kernel.alive_guests kern);
  Array.iter
    (fun id -> ignore (Kernel.kill_vm kern id ~reason:"scaling")) pds;
  Alcotest.check ci "all reaped" 0 (Kernel.alive_guests kern);
  (* Released ids come back oldest first: the first guest's window and
     tag. *)
  let again = Kernel.create_vm kern ~name:"again" idle_guest in
  Alcotest.check ci "oldest window recycled" again.Pd.id
    (Id_pool.holder (Kernel.windows kern) 0);
  Alcotest.check ci "oldest tag recycled" 2 again.Pd.asid;
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"))

(* ------------------------------------------------------------------ *)
(* Density acceptance gate: at batch >= 8 the ring ABI needs at least  *)
(* 4x fewer guest->kernel transitions per job than per-job hypercalls. *)

let density_cfg mode =
  { Density.default_config with
    Fleet_cell.vms = 4; abi = mode; jobs_per_vm = 16; batch = 8; check = true }

let test_density_transition_gate () =
  let v1 = Fleet_cell.run (density_cfg Fleet_cell.V1) in
  let v2 = Fleet_cell.run (density_cfg Fleet_cell.V2) in
  Alcotest.check ci "same fleet job count" v1.Fleet_cell.jobs_submitted
    v2.Fleet_cell.jobs_submitted;
  Alcotest.check cb "v1 makes progress" true (v1.Fleet_cell.jobs_ok > 0);
  Alcotest.check cb "v2 makes progress" true (v2.Fleet_cell.jobs_ok > 0);
  Alcotest.check cb "no crashes" true
    (v1.Fleet_cell.crashes = 0 && v2.Fleet_cell.crashes = 0);
  Alcotest.check cb "victim completed in both" true
    (v1.Fleet_cell.victim_ok = v1.Fleet_cell.victim_jobs
     && v2.Fleet_cell.victim_ok = v2.Fleet_cell.victim_jobs);
  let ratio =
    v1.Fleet_cell.transitions_per_job /. v2.Fleet_cell.transitions_per_job
  in
  Alcotest.check cb
    (Printf.sprintf "ring ABI cuts transitions >= 4x (got %.2fx)" ratio)
    true (ratio >= 4.0)

let test_density_deterministic () =
  let a = Fleet_cell.run (density_cfg Fleet_cell.V2) in
  let b = Fleet_cell.run (density_cfg Fleet_cell.V2) in
  Alcotest.check ci "transitions" a.Fleet_cell.transitions
    b.Fleet_cell.transitions;
  Alcotest.check ci "jobs ok" a.Fleet_cell.jobs_ok b.Fleet_cell.jobs_ok;
  Alcotest.check ci "ring enqueued" a.Fleet_cell.ring.Kernel.rs_enqueued
    b.Fleet_cell.ring.Kernel.rs_enqueued;
  Alcotest.check ci "sim cycles" a.Fleet_cell.sim_cycles
    b.Fleet_cell.sim_cycles

(* ------------------------------------------------------------------ *)
(* Descriptor flags. Bit 0 of the flags word is want_irq; the bits     *)
(* above it are reserved and must change nothing the kernel does.      *)

(* One doorbell over three QAM requests whose flags words are then
   overwritten with [flags], word by word. Returns the completions
   (tag, vIRQ) in drain order, the final clock and the job trace. *)
let flags_run flags =
  let z = Zynq.create () in
  let kern = Kernel.boot z in
  let task = Kernel.register_hw_task kern (Task_kind.Qam 4) in
  let tr = Ktrace.create ~capacity:4096 in
  Kernel.set_trace kern (Some tr);
  let cqes = ref [] in
  ignore
    (Kernel.create_vm kern ~name:"flags" (fun genv ->
         let p = Port.paravirt genv in
         match Ring_api.setup p ~entries:8 ~cvirq_budget:0 () with
         | Error e -> Alcotest.failf "setup: %s" e
         | Ok r ->
           List.iteri
             (fun i word ->
                Alcotest.check cb "descriptor accepted" true
                  (Ring_api.enqueue p r ~op:`Request ~task ~tag:(i + 1) ());
                (* Word 5 of the descriptor in slot [i]: its flags. *)
                Zynq.vwrite_word p.Port.zynq ~priv:p.Port.priv
                  (r.Ring_api.sq + Guest_layout.ring_hdr_size
                   + (i * Guest_layout.ring_desc_size) + (5 * 4))
                  word)
             flags;
           ignore (Ring_api.doorbell p r);
           cqes :=
             List.map
               (fun (c : Ring_api.cqe) -> (c.Ring_api.tag, c.Ring_api.irq))
               (Ring_api.drain_completions p r)));
  run_for kern (Cycles.of_ms 5.0);
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Invariant.violation_to_string
       (Invariant.check kern ~boundary:"test"));
  let rendered =
    List.map
      (fun (e : Ktrace.event) ->
         String.concat " " (List.map field_to_string e.Ktrace.fields))
      (hwtm_jobs tr)
  in
  (!cqes, Clock.now z.Zynq.clock, rendered)

let same_run label (c0, k0, t0) (c1, k1, t1) =
  Alcotest.(check (list (pair int (option int)))) (label ^ ": completions")
    c0 c1;
  Alcotest.(check (list string)) (label ^ ": job traces") t0 t1;
  Alcotest.check ci (label ^ ": final clocks") k0 k1

(* Set high bits must not turn want_irq on: the run equals the
   all-zero one. *)
let test_reserved_flag_bits_inert () =
  let quiet = flags_run [ 0; 0; 0 ] in
  let cqes, _, _ = quiet in
  Alcotest.(check (list int)) "submission order" [ 1; 2; 3 ]
    (List.map fst cqes);
  Alcotest.check cb "no vIRQ without want_irq" true
    (List.for_all (fun (_, irq) -> irq = None) cqes);
  same_run "high bits" quiet (flags_run [ 0xFFFFFFFE; 2; 0x80000000 ])

(* Set high bits must not mask want_irq either: bit 0 alone decides. *)
let test_want_irq_is_bit_0 () =
  let loud = flags_run [ 1; 1; 1 ] in
  let cqes, _, _ = loud in
  Alcotest.check cb "want_irq gives each job a vIRQ" true
    (List.for_all (fun (_, irq) -> irq <> None) cqes);
  same_run "high bits" loud (flags_run [ 0xFFFFFFFF; 3; 0x80000001 ])

(* ------------------------------------------------------------------ *)
(* Ring fuzzing: a hostile guest publishes descriptors and, before     *)
(* each doorbell, overwrites random SQ/CQ header words and descriptor  *)
(* fields with random u32 values. An honest µC/OS neighbour runs       *)
(* verified jobs beside it. No host exception, every neighbour job     *)
(* verifies, and the invariant plane stays clean. A second property    *)
(* also re-issues [Ring_setup] on the live ring with random arguments. *)

(* Where a poke lands: a header word of either ring, or one word of an
   SQ descriptor slot. *)
type target = Sq_hdr of int | Cq_hdr of int | Desc of int * int

type round = {
  resetup : (int * int) option;  (** first re-setup: entries, vIRQ budget *)
  enqueue : int;
  pokes : (target * int) list;
  polls : int;                   (** CQ polls after the doorbell *)
}

let fuzz_entries = 8

let show_target = function
  | Sq_hdr w -> Printf.sprintf "sq+%d" (4 * w)
  | Cq_hdr w -> Printf.sprintf "cq+%d" (4 * w)
  | Desc (slot, w) -> Printf.sprintf "desc%d+%d" slot (4 * w)

let show_rounds rounds =
  String.concat "; "
    (List.map
       (fun r ->
          Printf.sprintf "%senq %d [%s]%s"
            (match r.resetup with
             | Some (e, b) -> Printf.sprintf "setup %d/%d " e b
             | None -> "")
            r.enqueue
            (String.concat ", "
               (List.map
                  (fun (t, v) -> Printf.sprintf "%s=0x%x" (show_target t) v)
                  r.pokes))
            (if r.polls = 0 then " no-poll" else ""))
       rounds)

(* [prelude] draws each round's re-setup and poll count. *)
let gen_rounds_with prelude =
  let open QCheck2.Gen in
  let hdr_words = Guest_layout.ring_hdr_size / 4 in
  let target =
    oneof
      [ map (fun w -> Sq_hdr w) (int_range 0 (hdr_words - 1));
        map (fun w -> Cq_hdr w) (int_range 0 (hdr_words - 1));
        map2
          (fun slot w -> Desc (slot, w))
          (int_range 0 (fuzz_entries - 1))
          (int_range 0 ((Guest_layout.ring_desc_size / 4) - 1)) ]
  in
  (* Uniform u32s alone would almost never pass the first validation
     step, so half the values are near the ring's own indices or are
     addresses the guest legitimately owns. *)
  let value =
    oneof
      [ map (fun v -> v land 0xFFFF_FFFF) int;
        int_range 0 (2 * fuzz_entries);
        map (fun d -> (-d) land 0xFFFF_FFFF) (int_range 1 (2 * fuzz_entries));
        oneofl
          [ 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF;
            Guest_layout.default_data_section;
            Guest_layout.default_data_section_len;
            Guest_layout.default_iface_vaddr 0;
            Guest_layout.page_region_base;
            Guest_layout.ring_sq_base; Guest_layout.ring_cq_base;
            Guest_layout.kernel_base; Guest_layout.user_base ] ]
  in
  list_size (int_range 1 6)
    (map3
       (fun (resetup, polls) enqueue pokes ->
          { resetup; enqueue; pokes; polls })
       prelude (int_range 0 4)
       (list_size (int_range 0 6) (pair target value)))

let gen_rounds = gen_rounds_with (QCheck2.Gen.pure (None, fuzz_entries))

(* About one round in four re-issues [Ring_setup] first, with entry
   counts and budgets on both sides of the valid ranges. Half the
   rounds skip polling and leave their completions unconsumed, so CQ
   backpressure keeps descriptors in flight for a re-setup to forfeit. *)
let gen_resetup_rounds =
  let open QCheck2.Gen in
  gen_rounds_with
    (pair
       (frequency
          [ (3, pure None);
            ( 1,
              map2
                (fun e b -> Some (e, b))
                (int_range (-1) 70) (int_range (-1) 3) ) ])
       (oneofl [ 0; fuzz_entries ]))

let hostile_guest rounds tasks genv =
  let p = Port.paravirt genv in
  match Ring_api.setup p ~entries:fuzz_entries ~cvirq_budget:1 () with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok r0 ->
    let wr a v = Zynq.vwrite_word p.Port.zynq ~priv:p.Port.priv a v in
    let ring = ref r0 in
    List.iteri
      (fun i round ->
         (* A refused re-setup leaves the old ring in place. *)
         (match round.resetup with
          | Some (entries, cvirq_budget) ->
            (match Ring_api.setup p ~entries ~cvirq_budget () with
             | Ok r -> ring := r
             | Error _ -> ())
          | None -> ());
         let r = !ring in
         for k = 1 to round.enqueue do
           ignore
             (Ring_api.enqueue p r ~op:(if k = 3 then `Release else `Request)
                ~task:tasks.((i + k) mod Array.length tasks) ~tag:k ())
         done;
         List.iter
           (fun (target, v) ->
              match target with
              | Sq_hdr w -> wr (r.Ring_api.sq + (4 * w)) v
              | Cq_hdr w -> wr (r.Ring_api.cq + (4 * w)) v
              | Desc (slot, w) ->
                wr
                  (r.Ring_api.sq + Guest_layout.ring_hdr_size
                   + (slot * Guest_layout.ring_desc_size) + (4 * w))
                  v)
           round.pokes;
         ignore (Ring_api.doorbell p r);
         (* Bounded polling: the CQ tail may be one of our own forgeries. *)
         for _ = 1 to round.polls do
           ignore (Ring_api.poll p r)
         done;
         ignore (Hyper.pause ()))
      rounds

let honest_jobs = 4

let honest_guest tasks ~ok genv =
  let os = Ucos.create (Port.paravirt genv) in
  let rng = Rng.create ~seed:5 in
  ignore
    (Ucos.spawn os ~name:"honest" ~prio:4 (fun () ->
         for j = 0 to honest_jobs - 1 do
           let task, kind = tasks.(j mod Array.length tasks) in
           (match
              Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
                ~max_tries:1000 ()
            with
            | Ok h ->
              if Scenario.verified_job os rng h kind then incr ok;
              Hw_task_api.release os h
            | Error _ -> ());
           Ucos.delay os 1
         done;
         Ucos.stop os));
  Ucos.run os

let fuzz_case pcpus rounds =
  let smp = Fleet.boot ~pcpus () in
  let kinds = [ Task_kind.Qam 16; Task_kind.Fft 256; Task_kind.Qam 4 ] in
  let tasks =
    Array.of_list (List.map (fun k -> (Smp.register_hw_task smp k, k)) kinds)
  in
  let ok = ref 0 in
  ignore
    (Smp.create_vm smp ~name:"hostile" ~cpu:0
       (hostile_guest rounds (Array.map fst tasks)));
  ignore (Smp.create_vm smp ~name:"honest" ~cpu:0 (honest_guest tasks ~ok));
  Smp.run_for smp (Cycles.of_ms 60.0);
  let violations =
    List.map Invariant.violation_to_string
      (Invariant.check_smp smp ~boundary:"fuzz")
  in
  if !ok <> honest_jobs then
    QCheck2.Test.fail_reportf "honest guest verified %d of %d jobs" !ok
      honest_jobs;
  if violations <> [] then
    QCheck2.Test.fail_reportf "invariants: %s" (String.concat "; " violations);
  true

let prop_ring_fuzz pcpus =
  QCheck2.Test.make ~count:100 ~print:show_rounds
    ~name:(Printf.sprintf "hostile ring words at %d pCPU(s)" pcpus)
    gen_rounds (fuzz_case pcpus)

let prop_ring_resetup_fuzz pcpus =
  QCheck2.Test.make ~count:100 ~print:show_rounds
    ~name:(Printf.sprintf "hostile ring re-setup at %d pCPU(s)" pcpus)
    gen_resetup_rounds (fuzz_case pcpus)

(* The data window over the ring: a hostile guest points every
   request's data section at its own SQ/CQ pages, then starts jobs
   whose DMA-out lands on them, so the IP cores rewrite the ring
   while descriptors are in flight. The manager's consistency-block
   writes land there too, in the middle of the drain that grants or
   reclaims: a round's window starts at the SQ page (the cleared flag
   is the SQ tail), four bytes below the first descriptor slot (a
   reclaim's saved registers cover slot 0), or four bytes below the
   CQ page (they cover the CQ header).
   The kernel executes a copy of each batch taken before any job runs
   (phase A), so this must be harmless: the same three properties as
   above. *)

type window_job = { src : int; dst : int; len : int }

let show_window_rounds rounds =
  String.concat "; "
    (List.map
       (fun (base, req, jobs) ->
          Printf.sprintf "window +%d req %d [%s]" base req
            (String.concat ", "
               (List.map
                  (fun j -> Printf.sprintf "%d->%d len %d" j.src j.dst j.len)
                  jobs)))
       rounds)

let window_len = 2 * Addr.page_size

let gen_window_rounds =
  let open QCheck2.Gen in
  let job =
    map3
      (fun src dst len -> { src = 64 + (4 * src); dst = 4 * dst; len = 4 * len })
      (int_bound 255) (int_bound ((window_len / 4) - 1)) (int_range 1 32)
  in
  list_size (int_range 1 6)
    (triple
       (oneofl [ 0; Guest_layout.ring_hdr_size - 4; Addr.page_size - 4 ])
       (int_range 1 4) (list_size (int_range 1 4) job))

(* Wait, one OS tick at a time, until [ready ()] or [budget] ticks
   have passed. *)
let rec wait_until p ready budget =
  if budget > 0 && not (ready ()) then begin
    ignore (p.Port.idle_wait ());
    wait_until p ready (budget - 1)
  end

let window_guest rounds kinds genv =
  let tasks = Array.of_list (List.map fst kinds) in
  let p = Port.paravirt genv in
  let z = p.Port.zynq and priv = p.Port.priv in
  match Ring_api.setup p ~entries:fuzz_entries ~cvirq_budget:1 () with
  | Error e -> Alcotest.failf "setup: %s" e
  | Ok r ->
    p.Port.start_tick (Cycles.of_us 50.0);
    let jobs_left = ref [] in
    let next_job () =
      match !jobs_left with
      | j :: rest -> jobs_left := rest; j
      | [] -> { src = 64; dst = 0; len = 2 }
    in
    List.iteri
      (fun i (base, requests, jobs) ->
         jobs_left := jobs;
         let task_of tag = tasks.((i + tag) mod Array.length tasks) in
         for k = 1 to requests do
           ignore
             (Ring_api.enqueue p r ~op:`Request ~task:(task_of k)
                ~data_vaddr:(Guest_layout.ring_sq_base + base)
                ~data_len:window_len
                ~tag:k ())
         done;
         ignore (Ring_api.doorbell p r);
         let granted = ref [] in
         for _ = 1 to fuzz_entries do
           match Ring_api.poll p r with
           | Some { Ring_api.status = 0 | 1; tag; _ }
             when tag >= 1 && tag <= requests ->
             granted := task_of tag :: !granted
           | Some _ | None -> ()
         done;
         (* Run one job per granted PRR once it is configured; its DMA
            reads and writes the ring pages. *)
         List.iter
           (fun task ->
              wait_until p
                (fun () ->
                   match p.Port.hw_status ~task with
                   | Hyper.R_status { prr_ready; consistent; _ } ->
                     prr_ready || not consistent
                   | _ -> true)
                40;
              let j = next_job () in
              (* An FFT core only takes its own point count. *)
              let len =
                match List.assoc_opt task kinds with
                | Some (Task_kind.Fft n) -> n
                | Some _ | None -> j.len
              in
              let iface = Guest_layout.task_iface_vaddr task in
              let reg n v = Zynq.vwrite_word z ~priv (iface + (4 * n)) v in
              try
                reg Prr.Reg.src_offset j.src;
                reg Prr.Reg.dst_offset j.dst;
                reg Prr.Reg.len len;
                reg Prr.Reg.param 0;
                reg Prr.Reg.ctrl 1;
                wait_until p
                  (fun () ->
                     Zynq.vread_word z ~priv (iface + (4 * Prr.Reg.status))
                     land 0b10110 <> 0)
                  20
              with Mmu.Fault _ -> ())
           !granted)
      rounds

let window_case pcpus rounds =
  let smp = Fleet.boot ~pcpus () in
  let kinds = [ Task_kind.Qam 16; Task_kind.Fft 256; Task_kind.Qam 4 ] in
  let tasks =
    Array.of_list (List.map (fun k -> (Smp.register_hw_task smp k, k)) kinds)
  in
  let ok = ref 0 in
  ignore
    (Smp.create_vm smp ~name:"hostile" ~cpu:0
       (window_guest rounds (Array.to_list tasks)));
  ignore (Smp.create_vm smp ~name:"honest" ~cpu:0 (honest_guest tasks ~ok));
  Smp.run_for smp (Cycles.of_ms 60.0);
  let violations =
    List.map Invariant.violation_to_string
      (Invariant.check_smp smp ~boundary:"fuzz")
  in
  if !ok <> honest_jobs then
    QCheck2.Test.fail_reportf "honest guest verified %d of %d jobs" !ok
      honest_jobs;
  if violations <> [] then
    QCheck2.Test.fail_reportf "invariants: %s" (String.concat "; " violations);
  true

let prop_ring_window_fuzz pcpus =
  QCheck2.Test.make ~count:100 ~print:show_window_rounds
    ~name:(Printf.sprintf "data window over the ring at %d pCPU(s)" pcpus)
    gen_window_rounds (window_case pcpus)

let suite =
  ( "ring-abi",
    let t = Alcotest.test_case in
    [ t "ring round trip" `Quick test_ring_roundtrip;
      t "empty doorbell" `Quick test_empty_doorbell;
      t "backpressure + kill reclaims" `Quick
        test_backpressure_then_kill_reclaims;
      t "vIRQ moderation" `Quick test_virq_moderation;
      t "v1/v2 job-stream equivalence" `Quick test_v1_v2_equivalence;
      t "flat-cost create at 256 guests" `Quick test_create_256;
      t "density transition gate" `Quick test_density_transition_gate;
      t "density determinism" `Quick test_density_deterministic;
      t "descriptor flag bits above want_irq are inert" `Quick
        test_reserved_flag_bits_inert;
      t "want_irq is the low bit whatever lies above" `Quick
        test_want_irq_is_bit_0;
      t "forged CQ head is refused" `Quick (test_forged_cq_head 1);
      t "forged CQ head is refused at 4 pCPUs" `Quick (test_forged_cq_head 4);
      QCheck_alcotest.to_alcotest (prop_ring_fuzz 1);
      QCheck_alcotest.to_alcotest (prop_ring_fuzz 4);
      QCheck_alcotest.to_alcotest (prop_ring_resetup_fuzz 1);
      QCheck_alcotest.to_alcotest (prop_ring_resetup_fuzz 4);
      t "re-setup forfeits a stalled batch" `Quick
        test_resetup_forfeits_in_flight;
      QCheck_alcotest.to_alcotest (prop_ring_window_fuzz 1);
      QCheck_alcotest.to_alcotest (prop_ring_window_fuzz 4) ] )
