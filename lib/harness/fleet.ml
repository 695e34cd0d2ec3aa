(* The experiment kit: boot, the shared fleet guests, tallies and
   read-outs. Every multi-VM experiment drives the kernel through an
   Smp complex built here; at one pCPU the complex is pure delegation
   to the single kernel, so there is no separate single-kernel path. *)

let boot ?config ?observe ?(fault_seed = 0) ?fault_rate ~pcpus () =
  Smp.create ?config ~pcpus
    ~mk_zynq:(fun cpu ->
        Zynq.create ?observe ~fault_seed:(fault_seed + cpu) ?fault_rate ~cpu ())
    ()

(* {2 Guests} *)

type tally = {
  mutable sub : int;
  mutable ok : int;
  mutable busy : int;
  mutable denied : int;
  mutable failed : int;
}

let tally () = { sub = 0; ok = 0; busy = 0; denied = 0; failed = 0 }

let sum ts =
  let t = tally () in
  Array.iter
    (fun s ->
       t.sub <- t.sub + s.sub;
       t.ok <- t.ok + s.ok;
       t.busy <- t.busy + s.busy;
       t.denied <- t.denied + s.denied;
       t.failed <- t.failed + s.failed)
    ts;
  t

(* The PRR pool is heavily over-committed at high density, so a guest
   that never retried a busy answer would finish with almost nothing. *)
let busy_retries = 3

let victim ~seed ~jobs st tasks genv =
  let os = Ucos.create (Port.paravirt genv) in
  let rng = Rng.create ~seed:(seed + 101) in
  ignore
    (Ucos.spawn os ~name:"victim" ~prio:4 (fun () ->
         for j = 0 to jobs - 1 do
           Ucos.delay os (1 + Rng.int rng 2);
           let task = tasks.(j mod Array.length tasks) in
           st.sub <- st.sub + 1;
           (match
              Hw_task_api.acquire os ~task ~want_irq:true ~backoff:true
                ~max_tries:25 ()
            with
            | Error _ -> st.failed <- st.failed + 1
            | Ok h ->
              let off = Hw_task_api.data_in_off in
              Hw_task_api.start os h ~src_off:off ~dst_off:(off + 8192)
                ~len:64 ~param:4;
              ignore (Hw_task_api.wait_done os h);
              Hw_task_api.release os h;
              st.ok <- st.ok + 1)
         done;
         Ucos.stop os));
  Ucos.run os

let fleet_v1 ~jobs ~offset st tasks _genv =
  for j = 0 to jobs - 1 do
    let task = tasks.((offset + j) mod Array.length tasks) in
    st.sub <- st.sub + 1;
    let rec attempt tries =
      match
        Hyper.hypercall
          (Hyper.Hw_task_request
             { task;
               iface_vaddr = Guest_layout.default_iface_vaddr (task land 7);
               data_vaddr = Guest_layout.default_data_section;
               data_len = Guest_layout.default_data_section_len;
               want_irq = false })
      with
      | Hyper.R_hw { status = Hyper.Hw_success | Hyper.Hw_reconfig; _ } ->
        st.ok <- st.ok + 1;
        ignore (Hyper.hypercall (Hyper.Hw_task_release { task }))
      | Hyper.R_hw { status = Hyper.Hw_denied; _ } ->
        (* A static denial never clears: retrying would only inflate
           the transition count. *)
        st.denied <- st.denied + 1
      | Hyper.R_hw { status = Hyper.Hw_busy; _ } ->
        if tries < busy_retries then begin
          ignore (Hyper.pause ());
          attempt (tries + 1)
        end
        else st.busy <- st.busy + 1
      | _ -> st.failed <- st.failed + 1
    in
    attempt 0;
    ignore (Hyper.pause ())
  done

(* {2 Read-outs} *)

type turnaround = { virqs : int; p50_us : float; p99_us : float }

let victim_turnaround smp ~pd =
  let snap = Obs.snapshot (Smp.zynq smp 0).Zynq.obs in
  match
    List.find_opt
      (fun (c : Obs.cell) ->
         c.Obs.c_component = "virq_turnaround" && c.Obs.c_key = pd)
      snap.Obs.s_cells
  with
  | None -> { virqs = 0; p50_us = 0.0; p99_us = 0.0 }
  | Some c ->
    let us q =
      match Obs.cell_percentile c q with
      | Some cyc -> Cycles.to_us (int_of_float cyc)
      | None -> 0.0
    in
    { virqs = c.Obs.c_calls; p50_us = us 0.5; p99_us = us 0.99 }

type prr_util = {
  prr_id : int;
  pinned : int option;
  busy_cycles : int;
  util : float;
}

let prr_utilisation smp ~sim_cycles =
  List.concat
    (List.init (Smp.pcpus smp) (fun cpu ->
         let hwtm = Kernel.hwtm (Smp.kernel smp cpu) in
         let prrc = (Smp.zynq smp cpu).Zynq.prrc in
         List.init (Prr_controller.prr_count prrc) (fun i ->
             let p = Prr_controller.prr prrc i in
             { prr_id = (cpu * Prr_controller.prr_count prrc) + i;
               pinned = Hw_task_manager.pinned_client hwtm i;
               busy_cycles = p.Prr.busy_cycles;
               util =
                 (if sim_cycles = 0 then 0.0
                  else
                    float_of_int p.Prr.busy_cycles /. float_of_int sim_cycles) })))

let prr_util_json ~pinned l =
  let open Json_out in
  let row p =
    let owner = Option.fold ~none:Null ~some:(fun c -> Int c) p.pinned in
    Obj
      ((("prr", Int p.prr_id) :: (if pinned then [ ("pinned", owner) ] else []))
       @ [ ("busy_cycles", Int p.busy_cycles); ("util", Float p.util) ])
  in
  List (List.map row l)

let sum_nodes smp f =
  let acc = ref 0 in
  for cpu = 0 to Smp.pcpus smp - 1 do
    acc := !acc + f cpu
  done;
  !acc

let sum_kernels smp f = sum_nodes smp (fun cpu -> f (Smp.kernel smp cpu))
let sum_boards smp f = sum_nodes smp (fun cpu -> f (Smp.zynq smp cpu))
