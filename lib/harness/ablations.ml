type reconfig_row = {
  task : string;
  bitstream_kb : int;
  reconfig_ms : float;
}

let reconfig_table () =
  let z = Zynq.create () in
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  List.mapi
    (fun i kind ->
       let bit =
         Bitstream.make ~id:(i + 1) ~kind
           ~store_addr:Address_map.bitstream_store_base
       in
       let t0 = Clock.now z.Zynq.clock in
       (match Pcap.launch z.Zynq.pcap bit prr with
        | `Started _ -> ()
        | `Busy -> failwith "reconfig_table: PCAP unexpectedly busy");
       (match Event_queue.next_deadline z.Zynq.queue with
        | Some d -> ignore (Event_queue.advance_until z.Zynq.queue d)
        | None -> failwith "reconfig_table: no completion scheduled");
       { task = Task_kind.name kind;
         bitstream_kb = bit.Bitstream.size_bytes / 1024;
         reconfig_ms = Cycles.to_ms (Clock.now z.Zynq.clock - t0) })
    Scenario.standard_task_set

type axi_result = {
  payload_kb : int;
  hp_dma_us : float;
  acp_dma_us : float;
  cpu_after_hp_us : float;
  cpu_after_acp_us : float;
}

let axi_ablation () =
  let payload_kb = 64 in
  let z = Zynq.create () in
  let bytes = payload_kb * 1024 in
  let dma_base = Address_map.ddr_base + (64 lsl 20) in
  let set_base = Address_map.ddr_base + (80 lsl 20) in
  (* The sweep fills the whole 512 KB L2 so a coherent DMA genuinely
     evicts CPU state (empty ways would otherwise absorb it). *)
  let set_bytes = 512 * 1024 in
  (* CPU working-set sweep, physical accesses. *)
  let sweep () =
    let t0 = Clock.now z.Zynq.clock in
    let a = ref set_base in
    while !a < set_base + set_bytes do
      ignore (Hierarchy.access z.Zynq.hier Hierarchy.Load !a);
      a := !a + Addr.line_size
    done;
    Cycles.to_us (Clock.now z.Zynq.clock - t0)
  in
  (* Warm the working set into L1/L2. *)
  ignore (sweep ());
  ignore (sweep ());
  let hp_cycles = Axi.hp_transfer_cycles bytes in
  let cpu_after_hp = sweep () in
  ignore (sweep ());
  let acp_cycles =
    Axi.acp_transfer_cycles bytes ~l2:(Hierarchy.l2 z.Zynq.hier) dma_base
  in
  let cpu_after_acp = sweep () in
  { payload_kb;
    hp_dma_us = Cycles.to_us hp_cycles;
    acp_dma_us = Cycles.to_us acp_cycles;
    cpu_after_hp_us = cpu_after_hp;
    cpu_after_acp_us = cpu_after_acp }

type vfp_result = {
  lazy_switch_us : float;
  active_switch_us : float;
  lazy_vfp_switches : int;
  active_vfp_switches : int;
}

(* Two FP-using guests ping-ponging on a short quantum. *)
let vfp_run policy ~switches =
  let cfg =
    { Kernel.default_config with
      Kernel.quantum = Cycles.of_ms 2.0;
      vfp_policy = policy }
  in
  let smp = Fleet.boot ~config:cfg ~pcpus:1 () in
  let z = Smp.zynq smp 0 in
  let body (_env : Kernel.guest_env) =
    let spin =
      Exec.pin1
        { Exec.label = "spin";
          code = { Exec.base = Ucos_layout.os_code_base; len = 256 };
          reads = [];
          writes = [];
          base_cycles = 2000 }
    in
    while true do
      Exec.run_pinned z ~priv:false spin;
      ignore (Hyper.pause ())
    done
  in
  (* One FP-heavy guest and one integer-only guest: lazy switching
     leaves the VFP bank with the FP guest across the integer guest's
     slices (Table I's motivation). *)
  ignore (Smp.create_vm smp ~name:"fp" ~uses_vfp:true body);
  ignore (Smp.create_vm smp ~name:"int" ~uses_vfp:false body);
  Smp.run_for smp (Cycles.of_ms (2.2 *. float_of_int switches));
  let probe = Kernel.probe (Smp.kernel smp 0) in
  ( Cycles.to_us (int_of_float (Stats.mean (Probe.stats probe Probe.vm_switch))),
    probe.Probe.vfp_switch )

let vfp_ablation ?(switches = 200) () =
  match
    Parallel_sweep.run
      [ (fun () -> vfp_run `Lazy ~switches);
        (fun () -> vfp_run `Active ~switches) ]
  with
  | [ (lazy_us, lazy_n); (active_us, active_n) ] ->
    { lazy_switch_us = lazy_us;
      active_switch_us = active_us;
      lazy_vfp_switches = lazy_n;
      active_vfp_switches = active_n }
  | _ -> assert false

type trap_result = {
  hypercall_us : float;
  trap_us : float;
}

let trap_vs_hypercall ?(iterations = 400) () =
  let smp = Fleet.boot ~pcpus:1 () in
  let z = Smp.zynq smp 0 in
  let hyper_stats = Stats.create () and trap_stats = Stats.create () in
  let body (_env : Kernel.guest_env) =
    for _ = 1 to iterations do
      let t0 = Clock.now z.Zynq.clock in
      ignore (Hyper.hypercall (Hyper.Priv_reg_read Hyper.Reg_counter));
      Stats.add hyper_stats (float_of_int (Clock.now z.Zynq.clock - t0));
      let t1 = Clock.now z.Zynq.clock in
      ignore (Hyper.und_trap (Hyper.Mrc Hyper.Reg_counter));
      Stats.add trap_stats (float_of_int (Clock.now z.Zynq.clock - t1));
      if Stats.count trap_stats mod 50 = 0 then ignore (Hyper.pause ())
    done
  in
  ignore (Smp.create_vm smp ~name:"trapper" body);
  Smp.run_for smp (Cycles.of_ms 2000.0);
  { hypercall_us = Cycles.to_us (int_of_float (Stats.mean hyper_stats));
    trap_us = Cycles.to_us (int_of_float (Stats.mean trap_stats)) }

type asid_result = {
  asid : Scenario.overheads;
  flush_all : Scenario.overheads;
  first_chunk_asid_us : float;
  first_chunk_flush_us : float;
}

(* Micro: two guests alternate on a one-chunk quantum, each touching
   one cache line in each of 32 pages — a TLB-bound access pattern.
   Every chunk runs right after a VM switch, so the flush policy's
   page-walk refill shows directly in the chunk latency. *)
let first_chunk_us policy =
  let cfg =
    { Kernel.default_config with
      Kernel.quantum = Cycles.of_us 1.0;
      tlb_policy = policy }
  in
  let smp = Fleet.boot ~config:cfg ~pcpus:1 () in
  let z = Smp.zynq smp 0 in
  let stats = Stats.create () in
  (* Stagger the two guests' pages into disjoint TLB sets so that with
     ASID tagging both working sets genuinely coexist. *)
  let body index (_ : Kernel.guest_env) =
    let base =
      Guest_layout.user_base + (index * 32 * Addr.page_size)
    in
    let sparse =
      Exec.pin1
        { Exec.label = "sparse";
          code = { Exec.base = Ucos_layout.app_code_base; len = 128 };
          reads =
            (* One line per page, diagonally offset so the lines spread
               across cache sets (page-stride lines would conflict). *)
            List.init 32 (fun i ->
                { Exec.base = base + (i * Addr.page_size)
                              + (i * 4 * Addr.line_size);
                  len = Addr.line_size });
          writes = [];
          base_cycles = 100 }
    in
    while true do
      let t0 = Clock.now z.Zynq.clock in
      Exec.run_pinned z ~priv:false sparse;
      Stats.add stats (Cycles.to_us (Clock.now z.Zynq.clock - t0));
      ignore (Hyper.pause ())
    done
  in
  ignore (Smp.create_vm smp ~name:"wa" (body 0));
  ignore (Smp.create_vm smp ~name:"wb" (body 1));
  Smp.run_for smp (Cycles.of_ms 20.0);
  Stats.mean stats

let asid_ablation ~config () =
  (* A short quantum makes VM switches frequent enough for the TLB
     policy to matter (with the paper's 33 ms there are only a handful
     of switches per run). *)
  let config = { config with Scenario.quantum_ms = 2.0 } in
  let base = { config with Scenario.tlb_policy = `Asid } in
  let flush = { config with Scenario.tlb_policy = `Flush_all } in
  match
    Parallel_sweep.run
      [ (fun () -> `Run (Scenario.run_virtualized ~config:base ~guests:2 ()));
        (fun () -> `Run (Scenario.run_virtualized ~config:flush ~guests:2 ()));
        (fun () -> `Us (first_chunk_us `Asid));
        (fun () -> `Us (first_chunk_us `Flush_all)) ]
  with
  | [ `Run asid; `Run flush_all; `Us chunk_asid; `Us chunk_flush ] ->
    { asid; flush_all;
      first_chunk_asid_us = chunk_asid;
      first_chunk_flush_us = chunk_flush }
  | _ -> assert false

let quantum_sweep ~config () =
  Parallel_sweep.map
    (fun q ->
       let cfg = { config with Scenario.quantum_ms = q } in
       (q, Scenario.run_virtualized ~config:cfg ~guests:2 ()))
    [ 1.0; 10.0; 33.0; 100.0 ]
