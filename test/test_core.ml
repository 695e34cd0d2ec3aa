(* Unit tests for the microkernel's building blocks. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* --- Hypercall ABI --- *)

let all_requests =
  [ Hyper.Cache_clean_range { vaddr = 0; len = 1 };
    Hyper.Cache_invalidate_range { vaddr = 0; len = 1 };
    Hyper.Cache_flush_all;
    Hyper.Tlb_flush_asid;
    Hyper.Tlb_flush_all;
    Hyper.Irq_enable 0;
    Hyper.Irq_disable 0;
    Hyper.Irq_set_entry 0;
    Hyper.Irq_eoi 0;
    Hyper.Vtimer_config { interval = 1 };
    Hyper.Vtimer_stop;
    Hyper.Map_insert { vaddr = 0; gphys_off = 0; user = true };
    Hyper.Map_remove { vaddr = 0 };
    Hyper.Pt_alloc_l2 { vaddr = 0 };
    Hyper.Set_guest_mode Hyper.Gm_user;
    Hyper.Priv_reg_read Hyper.Reg_counter;
    Hyper.Priv_reg_write (Hyper.Reg_l2ctrl, 0);
    Hyper.Uart_write "";
    Hyper.Sd_read { block = 0 };
    Hyper.Sd_write { block = 0; data = Bytes.create 512 };
    Hyper.Hw_task_request
      { task = 0; iface_vaddr = 0; data_vaddr = 0; data_len = 0;
        want_irq = false };
    Hyper.Hw_task_release { task = 0 };
    Hyper.Hw_task_status { task = 0 };
    Hyper.Vm_send { dest = 0; payload = [||] };
    Hyper.Vm_recv ]

let test_hypercall_count_versioned () =
  (* The paper provides exactly 25 hypercalls (§V-B): that is ABI v1,
     pinned forever. The descriptor-ring extension is ABI v2. *)
  check ci "ABI v1 size" 25 Hyper.hypercall_count_v1;
  check ci "ABI v2 size" 27 Hyper.hypercall_count_v2;
  check ci "current ABI is v2" Hyper.hypercall_count_v2 Hyper.hypercall_count;
  check ci "abi_version" 2 Hyper.abi_version;
  check ci "v1 constructor coverage" 25 (List.length all_requests);
  List.iter
    (fun r -> check ci ("v1: " ^ Hyper.name r) 1 (Hyper.version_of r))
    all_requests;
  List.iter
    (fun r -> check ci ("v2: " ^ Hyper.name r) 2 (Hyper.version_of r))
    Hyper.requests_v2

let test_hypercall_numbering () =
  let numbers = List.map Hyper.number all_requests in
  check (Alcotest.list ci) "dense stable numbering 1..25"
    (List.init 25 (fun i -> i + 1))
    numbers;
  check (Alcotest.list ci) "v2 additions numbered 26..27" [ 26; 27 ]
    (List.map Hyper.number Hyper.requests_v2);
  let names = List.map Hyper.name (all_requests @ Hyper.requests_v2) in
  check ci "names unique" 27
    (List.length (List.sort_uniq String.compare names))

(* --- Klayout: code paths must not share cache lines --- *)

let test_klayout_disjoint () =
  let ranges =
    [ Klayout.svc_entry; Klayout.svc_exit;
      Klayout.irq_entry; Klayout.und_entry;
      Klayout.hyper_dispatch; Klayout.vgic_inject; Klayout.vm_switch;
      Klayout.sched_pick; Klayout.trap_decode; Klayout.ipc_copy;
      Klayout.ring_setup_stub; Klayout.ring_drain_stub;
      Klayout.ring_complete_stub;
      Klayout.mgr_entry_stub; Klayout.mgr_exit_stub; Klayout.mgr_main;
      Klayout.mgr_task_table; Klayout.mgr_prr_table; Klayout.mgr_stack;
      Klayout.pd_table ]
    @ List.init Hyper.hypercall_count (fun i -> Klayout.handler (i + 1))
    @ List.init 8 Klayout.vcpu_save_area
  in
  let sorted = List.sort compare ranges in
  let rec no_overlap = function
    | (b1, l1) :: ((b2, _) as r2) :: rest ->
      check cb
        (Printf.sprintf "ranges 0x%x(+%d) and 0x%x disjoint" b1 l1 b2)
        true
        (b1 + l1 <= b2);
      no_overlap (r2 :: rest)
    | _ -> ()
  in
  no_overlap sorted

let test_klayout_inside_kernel_image () =
  List.iter
    (fun (b, l) ->
       check cb "code in kernel code region" true
         (b >= Address_map.kernel_code_base
          && b + l
             <= Address_map.kernel_code_base + Address_map.kernel_code_size))
    [ Klayout.svc_entry; Klayout.vm_switch; Klayout.mgr_main;
      Klayout.handler 25 ]

(* --- Vgic --- *)

let test_vgic_lifecycle () =
  let v = Vgic.create ~owner:3 in
  Vgic.register v 61;
  check cb "registered" true (Vgic.registered v 61);
  Vgic.set_pending v 61;
  check cb "disabled not deliverable" false (Vgic.has_deliverable v);
  check (Alcotest.list ci) "drain keeps latched" [] (Vgic.drain v);
  Vgic.enable v 61;
  check cb "now deliverable" true (Vgic.has_deliverable v);
  check (Alcotest.list ci) "drained" [ 61 ] (Vgic.drain v);
  check cb "drained once" false (Vgic.has_deliverable v)

let test_vgic_arrival_order () =
  let v = Vgic.create ~owner:0 in
  List.iter
    (fun i ->
       Vgic.register v i;
       Vgic.enable v i)
    [ 10; 20; 30 ];
  Vgic.set_pending v 30;
  Vgic.set_pending v 10;
  Vgic.set_pending v 30; (* duplicate coalesces *)
  Vgic.set_pending v 20;
  check (Alcotest.list ci) "arrival order, no dups" [ 30; 10; 20 ]
    (Vgic.drain v)

let test_vgic_unregistered_latch () =
  let v = Vgic.create ~owner:0 in
  Vgic.set_pending v 95;
  Vgic.register v 95;
  Vgic.enable v 95;
  check (Alcotest.list ci) "latched before registration" [ 95 ] (Vgic.drain v)

let test_vgic_enable_requires_registration () =
  let v = Vgic.create ~owner:0 in
  Alcotest.check_raises "enable unknown"
    (Invalid_argument "Vgic: source not registered") (fun () ->
        Vgic.enable v 61)

let test_vgic_enabled_sources () =
  let v = Vgic.create ~owner:0 in
  List.iter
    (fun i ->
       Vgic.register v i;
       if i <> 20 then Vgic.enable v i)
    [ 30; 10; 20 ];
  check (Alcotest.list ci) "sorted enabled" [ 10; 30 ] (Vgic.enabled_sources v)

(* --- Sched --- *)

let mk_pd id prio =
  let mem = Phys_mem.create () in
  let fa = Frame_alloc.create ~base:Address_map.kernel_data_base ~size:(1 lsl 20) in
  let pt = Page_table.create mem fa in
  Pd.make ~id ~name:(Printf.sprintf "pd%d" id) ~kind:Pd.Guest ~priority:prio
    ~asid:(id + 2) ~pt ~phys_base:0 ~quantum:1000 ()

let pd_ids pds = List.map (fun p -> p.Pd.id) pds

let test_sched_priority_pick () =
  let s = Sched.create () in
  let a = mk_pd 1 1 and b = mk_pd 2 3 and c = mk_pd 3 2 in
  List.iter (Sched.enqueue s) [ a; b; c ];
  (match Sched.pick s with
   | Some p -> check ci "highest priority wins" 2 p.Pd.id
   | None -> Alcotest.fail "expected pick");
  Sched.dequeue s b;
  (match Sched.pick s with
   | Some p -> check ci "next level" 3 p.Pd.id
   | None -> Alcotest.fail "expected pick")

let test_sched_round_robin () =
  let s = Sched.create () in
  let a = mk_pd 1 1 and b = mk_pd 2 1 and c = mk_pd 3 1 in
  List.iter (Sched.enqueue s) [ a; b; c ];
  check (Alcotest.list ci) "ring order" [ 1; 2; 3 ]
    (pd_ids (Sched.members s));
  Sched.rotate s a;
  check (Alcotest.list ci) "rotated" [ 2; 3; 1 ]
    (pd_ids (Sched.members s));
  (match Sched.pick s with
   | Some p -> check ci "head after rotate" 2 p.Pd.id
   | None -> Alcotest.fail "pick");
  (* Rotating a non-head PD is a no-op. *)
  Sched.rotate s a;
  check (Alcotest.list ci) "unchanged" [ 2; 3; 1 ]
    (pd_ids (Sched.members s))

let test_sched_remove_head () =
  let s = Sched.create () in
  let a = mk_pd 1 1 and b = mk_pd 2 1 in
  Sched.enqueue s a;
  Sched.enqueue s b;
  Sched.dequeue s a;
  check (Alcotest.list ci) "survivor" [ 2 ] (pd_ids (Sched.members s));
  Sched.dequeue s b;
  check ci "empty" 0 (Sched.count s);
  check cb "nothing to pick" true (Sched.pick s = None)

let test_sched_reenqueue_idempotent () =
  let s = Sched.create () in
  let a = mk_pd 1 1 in
  Sched.enqueue s a;
  Sched.enqueue s a;
  check ci "no duplicates" 1 (Sched.count s)

let prop_sched_rotation_cycles =
  QCheck2.Test.make ~name:"N rotations return to original order" ~count:50
    QCheck2.Gen.(int_range 1 8)
    (fun n ->
       let s = Sched.create () in
       let pds = List.init n (fun i -> mk_pd i 1) in
       List.iter (Sched.enqueue s) pds;
       let before = pd_ids (Sched.members s) in
       for _ = 1 to n do
         match Sched.pick s with
         | Some head -> Sched.rotate s head
         | None -> ()
       done;
       pd_ids (Sched.members s) = before)

(* --- Ipc --- *)

let test_ipc_fifo () =
  let q = Ipc.create () in
  check cb "send a" true (Result.is_ok (Ipc.send q ~sender:1 [| 10 |]));
  check cb "send b" true (Result.is_ok (Ipc.send q ~sender:2 [| 20 |]));
  (match Ipc.recv q with
   | Some m ->
     check ci "fifo sender" 1 m.Ipc.sender;
     check ci "payload" 10 m.Ipc.payload.(0)
   | None -> Alcotest.fail "expected message");
  check ci "depth" 1 (Ipc.depth q)

let test_ipc_bounds () =
  let q = Ipc.create () in
  for i = 1 to Ipc.capacity do
    check cb "fits" true (Result.is_ok (Ipc.send q ~sender:i [||]))
  done;
  check cb "overflow refused" true (Result.is_error (Ipc.send q ~sender:0 [||]));
  check cb "oversize refused" true
    (Result.is_error (Ipc.send q ~sender:0 (Array.make (Ipc.max_words + 1) 0)))

let test_ipc_payload_isolation () =
  let q = Ipc.create () in
  let payload = [| 1; 2; 3 |] in
  ignore (Ipc.send q ~sender:1 payload);
  payload.(0) <- 99;
  (match Ipc.recv q with
   | Some m -> check ci "copied at send" 1 m.Ipc.payload.(0)
   | None -> Alcotest.fail "expected message")

(* --- Vcpu --- *)

let test_vcpu_state () =
  let v = Vcpu.create ~pd_id:3 () in
  check cb "boots in guest-kernel mode" true (Vcpu.guest_mode v = Hyper.Gm_kernel);
  Vcpu.set_guest_mode v Hyper.Gm_user;
  check cb "mode switch" true (Vcpu.guest_mode v = Hyper.Gm_user);
  let base, len = Vcpu.save_area v in
  let base4, _ = Vcpu.save_area (Vcpu.create ~pd_id:4 ()) in
  check cb "save areas disjoint" true (base + len <= base4)

let test_vcpu_switch_costs () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  ignore kmem;
  let a = Vcpu.create ~pd_id:1 () and b = Vcpu.create ~pd_id:2 () in
  let active_switch = Exec.pin [| Vcpu.save_fp a; Vcpu.restore_fp b |] in
  let vfp_switch = Exec.pin [| Vcpu.vfp_load_fp b; Vcpu.vfp_store_fp a |] in
  let t0 = Clock.now z.Zynq.clock in
  Exec.run_pinned z ~priv:true active_switch;
  let active = Clock.now z.Zynq.clock - t0 in
  check cb "active switch costs time" true (active > 0);
  let t1 = Clock.now z.Zynq.clock in
  Exec.run_pinned z ~priv:true vfp_switch;
  let vfp = Clock.now z.Zynq.clock - t1 in
  check cb "lazy VFP switch is expensive (Table I)" true (vfp > active / 2)

(* --- Kmem --- *)

let test_kmem_guest_spaces_isolated () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  let pt0 = Kmem.make_guest_pt kmem ~index:0 in
  let pt1 = Kmem.make_guest_pt kmem ~index:1 in
  let walk pt v =
    Page_table.walk ~read:(Phys_mem.read_u32 z.Zynq.mem)
      ~root:(Page_table.root pt) ~virt:v
  in
  let va = Guest_layout.user_base + 0x0010_0000 in
  let off = va - Guest_layout.kernel_base in
  (match walk pt0 va, walk pt1 va with
   | Some (p0, _), Some (p1, _) ->
     check cb "same vaddr, distinct physical backing" true (p0 <> p1);
     check ci "guest 0 backing" (Address_map.guest_phys_base 0 + off) p0;
     check ci "guest 1 backing" (Address_map.guest_phys_base 1 + off) p1
   | _ -> Alcotest.fail "guest areas must be mapped");
  (* Kernel globals appear in both. *)
  (match walk pt0 Address_map.kernel_code_base with
   | Some (p, attrs) ->
     check ci "kernel identity" Address_map.kernel_code_base p;
     check cb "kernel priv" true (attrs.Pte.ap = Pte.Ap_priv);
     check cb "kernel global" true attrs.Pte.global
   | None -> Alcotest.fail "kernel must be mapped in guests");
  (* The bitstream store is manager-only (paper §IV-B). *)
  check cb "bitstream store hidden from guests" true
    (walk pt0 Address_map.bitstream_store_base = None)

let test_kmem_guest_map_page () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  let pt = Kmem.make_guest_pt kmem ~index:0 in
  let pd =
    Pd.make ~id:1 ~name:"g" ~kind:Pd.Guest ~priority:1 ~asid:2 ~pt
      ~phys_base:(Address_map.guest_phys_base 0) ~quantum:100 ()
  in
  let vaddr = Guest_layout.page_region_base + 0x3000 in
  check cb "map ok" true
    (Result.is_ok
       (Kmem.guest_map_page kmem pd ~vaddr ~gphys_off:0x0070_0000 ~user:true));
  check cb "outside page region refused" true
    (Result.is_error
       (Kmem.guest_map_page kmem pd ~vaddr:0x0050_0000 ~gphys_off:0 ~user:true));
  check cb "offset beyond allotment refused" true
    (Result.is_error
       (Kmem.guest_map_page kmem pd ~vaddr ~gphys_off:(64 lsl 20) ~user:true));
  check cb "unmap ok" true (Result.is_ok (Kmem.guest_unmap_page kmem pd ~vaddr));
  check cb "double unmap reports" true
    (Result.is_error (Kmem.guest_unmap_page kmem pd ~vaddr))

let test_kmem_iface_mapping () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  let pt = Kmem.make_guest_pt kmem ~index:0 in
  let pd =
    Pd.make ~id:1 ~name:"g" ~kind:Pd.Guest ~priority:1 ~asid:2 ~pt
      ~phys_base:(Address_map.guest_phys_base 0) ~quantum:100 ()
  in
  let prr = Prr_controller.prr z.Zynq.prrc 1 in
  let vaddr = Guest_layout.default_iface_vaddr 1 in
  check cb "iface map" true
    (Result.is_ok
       (Kmem.map_iface kmem pd ~prr_regs_base:prr.Prr.regs_base ~vaddr));
  (match
     Page_table.walk ~read:(Phys_mem.read_u32 z.Zynq.mem)
       ~root:(Page_table.root pt) ~virt:vaddr
   with
   | Some (pa, _) -> check ci "maps to PRR page" prr.Prr.regs_base pa
   | None -> Alcotest.fail "iface must be mapped");
  Kmem.unmap_iface kmem pd ~vaddr;
  check cb "demapped" true
    (Page_table.walk ~read:(Phys_mem.read_u32 z.Zynq.mem)
       ~root:(Page_table.root pt) ~virt:vaddr
     = None)

let test_kmem_asid_allocation () =
  let z = Zynq.create () in
  let kmem = Kmem.create z in
  let a = Option.get (Kmem.try_alloc_asid kmem ~pd:1) in
  let b = Option.get (Kmem.try_alloc_asid kmem ~pd:2) in
  check ci "starts at 2 (0=kernel, 1=manager)" 2 a;
  check ci "monotonic" 3 b

let test_id_pool () =
  let p = Id_pool.create ~first:2 ~limit:5 in
  (* In order: list literals evaluate right to left. *)
  let takes holders = List.map (fun h -> Id_pool.take p ~holder:h) holders in
  check (Alcotest.list (Alcotest.option ci)) "fresh ids, then none"
    [ Some 2; Some 3; Some 4; None ] (takes [ 10; 11; 12; 13 ]);
  Id_pool.release p 3;
  Id_pool.release p 2;
  check ci "live count" 1 (Id_pool.live p);
  check ci "released id has no holder" (-1) (Id_pool.holder p 3);
  check cb "next take recycles" true (Id_pool.recycles_next p);
  check (Alcotest.list (Alcotest.option ci)) "oldest release first"
    [ Some 3; Some 2 ] (takes [ 20; 21 ]);
  check ci "holder recorded" 21 (Id_pool.holder p 2);
  Id_pool.release p 4;
  Alcotest.check_raises "double release"
    (Invalid_argument "Id_pool.release: id not live") (fun () ->
      Id_pool.release p 4)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "core",
    [ t "hypercall counts are versioned" test_hypercall_count_versioned;
      t "hypercall numbering" test_hypercall_numbering;
      t "klayout disjoint" test_klayout_disjoint;
      t "klayout in kernel image" test_klayout_inside_kernel_image;
      t "vgic lifecycle" test_vgic_lifecycle;
      t "vgic arrival order" test_vgic_arrival_order;
      t "vgic unregistered latch" test_vgic_unregistered_latch;
      t "vgic enable requires registration" test_vgic_enable_requires_registration;
      t "vgic enabled sources" test_vgic_enabled_sources;
      t "sched priority pick" test_sched_priority_pick;
      t "sched round robin" test_sched_round_robin;
      t "sched remove head" test_sched_remove_head;
      t "sched reenqueue idempotent" test_sched_reenqueue_idempotent;
      QCheck_alcotest.to_alcotest prop_sched_rotation_cycles;
      t "ipc fifo" test_ipc_fifo;
      t "ipc bounds" test_ipc_bounds;
      t "ipc payload isolation" test_ipc_payload_isolation;
      t "vcpu state" test_vcpu_state;
      t "vcpu switch costs" test_vcpu_switch_costs;
      t "kmem guest isolation" test_kmem_guest_spaces_isolated;
      t "kmem guest map page" test_kmem_guest_map_page;
      t "kmem iface mapping" test_kmem_iface_mapping;
      t "kmem asid allocation" test_kmem_asid_allocation;
      t "id pool recycles oldest first" test_id_pool ] )
