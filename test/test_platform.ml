(* Tests for the assembled board and the footprint execution engine. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let board_with_kernel_map () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  (z, kmem)

let test_cpu_modes () =
  check cb "exception entry costs cycles" true
    (Cpu_mode.exception_entry_cycles > 0);
  check cb "exception return costs cycles" true
    (Cpu_mode.exception_return_cycles > 0)

let test_zynq_vaccess_roundtrip () =
  let z, _ = board_with_kernel_map () in
  let a = Address_map.kernel_data_base + 0x500 in
  Zynq.vwrite_word z ~priv:true a 0xFEED;
  check ci "word" 0xFEED (Zynq.vread_word z ~priv:true a);
  Zynq.vwrite_u8 z ~priv:true (a + 8) 0x7F;
  check ci "u8" 0x7F (Zynq.vread_u8 z ~priv:true (a + 8))

let test_zynq_user_access_blocked () =
  let z, _ = board_with_kernel_map () in
  (* Kernel mappings are Ap_priv: PL0 access must fault. *)
  match
    Zynq.vread_word z ~priv:false (Address_map.kernel_data_base + 0x500)
  with
  | exception Mmu.Fault (Mmu.Permission_fault _) -> ()
  | _ -> Alcotest.fail "expected permission fault"

let test_zynq_mmio_routing () =
  let z, _ = board_with_kernel_map () in
  (* The PL register window is decoded to the PRR controller, not RAM. *)
  let prr = Prr_controller.prr z.Zynq.prrc 1 in
  let reg_addr = prr.Prr.regs_base + (4 * Prr.Reg.len) in
  check cb "in PL window" true (Zynq.in_pl_window reg_addr);
  Zynq.vwrite_word z ~priv:true reg_addr 77;
  check (Alcotest.int32) "MMIO write hit the register file" 77l
    (Prr.read_reg prr Prr.Reg.len);
  check ci "MMIO read" 77 (Zynq.vread_word z ~priv:true reg_addr);
  check cb "DDR not PL" false (Zynq.in_pl_window Address_map.kernel_code_base)

let test_zynq_mmio_charges_bus_time () =
  let z, _ = board_with_kernel_map () in
  let prr = Prr_controller.prr z.Zynq.prrc 0 in
  let t0 = Clock.now z.Zynq.clock in
  ignore (Zynq.vread_word z ~priv:true prr.Prr.regs_base);
  let mmio = Clock.now z.Zynq.clock - t0 in
  (* Warm cached RAM access for comparison. *)
  let a = Address_map.kernel_data_base + 0x600 in
  ignore (Zynq.vread_word z ~priv:true a);
  let t1 = Clock.now z.Zynq.clock in
  ignore (Zynq.vread_word z ~priv:true a);
  let ram = Clock.now z.Zynq.clock - t1 in
  check cb "device access much slower than a cache hit" true (mmio > 10 * ram)

let test_idle_until_next_event () =
  let z = Zynq.create () in
  check cb "nothing pending" false (Zynq.idle_until_next_event z);
  let fired = ref false in
  ignore
    (Event_queue.schedule_after z.Zynq.queue 500 (fun () -> fired := true));
  check cb "skips to the event" true (Zynq.idle_until_next_event z);
  check cb "event fired" true !fired;
  check ci "clock at deadline" 500 (Clock.now z.Zynq.clock)

(* --- Exec --- *)

let kernel_fp ?(reads = []) ?(writes = []) ?(base_cycles = 0) len =
  { Exec.label = "t";
    code = { Exec.base = Address_map.kernel_code_base + 0x4000; len };
    reads; writes; base_cycles }

(* Clock delta of one run of a pinned trace. *)
let cycles_of z pinned =
  let t0 = Clock.now z.Zynq.clock in
  Exec.run_pinned z ~priv:true pinned;
  Clock.now z.Zynq.clock - t0

let test_exec_charges_issue_and_memory () =
  let z, _ = board_with_kernel_map () in
  let fp = kernel_fp ~base_cycles:100 256 in
  let pinned = Exec.pin1 fp in
  let cold = cycles_of z pinned in
  let warm = cycles_of z pinned in
  check cb "cold run slower than warm" true (cold > warm);
  (* Warm: 8 fetch lines + 64 issued instructions + 100 base. *)
  check ci "warm cost exactly as modelled" (8 + 64 + 100) warm

(* A warm replay allocates nothing: the context-slot scan, the
   whole-program warm check and the hit replay are all loops. *)
let test_exec_warm_replay_allocates_nothing () =
  let z, _ = board_with_kernel_map () in
  Fastpath.set_enabled z.Zynq.fast true;
  let data = Address_map.kernel_data_base + 0x70000 in
  let pinned =
    Exec.pin1
      (kernel_fp 256 ~base_cycles:10
         ~reads:[ { Exec.base = data; len = 128 } ]
         ~writes:[ { Exec.base = data + 4096; len = 64 } ])
  in
  Exec.run_pinned z ~priv:true pinned;
  Exec.run_pinned z ~priv:true pinned;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Exec.run_pinned z ~priv:true pinned
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words over 10k warm replays" 0. words

let test_exec_data_ranges () =
  let z, _ = board_with_kernel_map () in
  let data = Address_map.kernel_data_base + 0x70000 in
  let fp =
    kernel_fp 64
      ~reads:[ { Exec.base = data; len = 128 } ]
      ~writes:[ { Exec.base = data + 4096; len = 64 } ]
  in
  Exec.run_pinned z ~priv:true (Exec.pin1 fp);
  (* The write range must now be dirty in the D-cache. *)
  check cb "writes dirtied the cache" true
    (Hierarchy.dirty_in_range z.Zynq.hier (data + 4096) 64);
  check cb "reads are clean" false
    (Hierarchy.dirty_in_range z.Zynq.hier data 128)

let test_exec_faults_on_unmapped () =
  let z, _ = board_with_kernel_map () in
  let fp =
    { Exec.label = "bad";
      code = { Exec.base = 0x7000_0000; len = 64 };
      reads = [];
      writes = [];
      base_cycles = 0 }
  in
  match Exec.run_pinned z ~priv:true (Exec.pin1 fp) with
  | exception Mmu.Fault (Mmu.Translation_fault _) -> ()
  | _ -> Alcotest.fail "expected translation fault"

let test_exec_touch_line_granularity () =
  let z, _ = board_with_kernel_map () in
  let data = Address_map.kernel_data_base + 0x71000 in
  (* A footprint of one read range and no code. *)
  let load len =
    Exec.run_pinned z ~priv:true
      (Exec.pin1
         { Exec.label = "load"; code = { Exec.base = data; len = 0 };
           reads = [ { Exec.base = data; len } ]; writes = [];
           base_cycles = 0 })
  in
  (* Warm the TLB so no page-walk loads pollute the count. *)
  load 32;
  let l1d = Hierarchy.l1d z.Zynq.hier in
  let before = Cache.hits l1d + Cache.misses l1d in
  load 128;
  check ci "one access per 32 B line" 4
    (Cache.hits l1d + Cache.misses l1d - before)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "platform",
    [ t "cpu modes" test_cpu_modes;
      t "virtual access roundtrip" test_zynq_vaccess_roundtrip;
      t "user access blocked" test_zynq_user_access_blocked;
      t "mmio routing" test_zynq_mmio_routing;
      t "mmio bus cost" test_zynq_mmio_charges_bus_time;
      t "idle until next event" test_idle_until_next_event;
      t "exec cold vs warm" test_exec_charges_issue_and_memory;
      t "exec warm replay allocates nothing"
        test_exec_warm_replay_allocates_nothing;
      t "exec data ranges" test_exec_data_ranges;
      t "exec faults unmapped" test_exec_faults_on_unmapped;
      t "exec touch granularity" test_exec_touch_line_granularity ] )
