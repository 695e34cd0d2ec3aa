(* Equivalence of the compiled kernel control paths with the scalar
   reference walk.

   The kernel charges its own control paths — SVC entry and hypercall
   dispatch, per-hypercall handler bodies, world switch (vCPU save,
   scheduler pick, vCPU restore, VFP bank load and store), IRQ entry,
   virtual-IRQ inject, IPC copy, UND trap entry and manager
   entry/exit — through pinned Exec footprints, which the fast
   path compiles into replayable trace programs. Those programs
   promise to be bit-identical to the reference walk under any guest
   behaviour: same simulated cycles, same cache/TLB counters, same
   kernel event timeline, same observability counters. This property
   drives randomized multi-guest workloads through two fresh kernels —
   fast path on and off — and compares the full fingerprint. *)

let check = Alcotest.check

(* --- randomized scenario parameters --- *)

type params = {
  quantum_ms : float;
  vfp_policy : [ `Lazy | `Active ];
  guests : (int * int * int * bool) list;
    (* (variant, priority, gseed, uses_vfp) *)
  run_ms : int;
  kill_after : bool;   (* kill the first guest, then run again *)
}

let gen_params =
  QCheck.Gen.(
    let* quantum_ms = oneofl [ 0.5; 1.0; 2.0 ] in
    let* vfp_policy = oneofl [ `Lazy; `Active ] in
    let* nguests = int_range 1 3 in
    let* guests =
      list_repeat nguests
        (quad (int_bound 3) (int_range 1 3) (int_bound 100_000) bool)
    in
    let* run_ms = int_range 5 40 in
    let* kill_after = bool in
    return { quantum_ms; vfp_policy; guests; run_ms; kill_after })

let show_params p =
  Printf.sprintf "{q=%.1fms vfp=%s run=%dms kill=%b guests=[%s]}"
    p.quantum_ms
    (match p.vfp_policy with `Lazy -> "lazy" | `Active -> "active")
    p.run_ms p.kill_after
    (String.concat "; "
       (List.map
          (fun (v, pr, g, f) -> Printf.sprintf "(%d,%d,%d,%b)" v pr g f)
          p.guests))

let arb_params = QCheck.make ~print:show_params gen_params

(* A guest body mixing cheap and heavy hypercalls, IRQ churn, IPC,
   trapped privileged instructions and hostile arguments — every
   dispatch goes through the compiled prologue/handler/exit traces,
   every trap through the UND entry trace, and the pauses in between
   exercise the world-switch save/pick/restore traces (and the VFP
   bank traces when a guest uses the VFP). *)
(* Traps taken and messages received, over every drive: the
   "traces taken" check reads them. *)
let unds = ref 0
let msgs = ref 0

let guest_body ~variant ~gseed _genv =
  let rng = Rng.create ~seed:gseed in
  while true do
    (match (variant + Rng.int rng 9) mod 9 with
     | 0 -> ignore (Hyper.hypercall (Hyper.Uart_write "c"))
     | 1 -> ignore (Hyper.hypercall Hyper.Tlb_flush_asid)
     | 2 -> ignore (Hyper.hypercall (Hyper.Irq_enable (32 + Rng.int rng 8)))
     | 3 ->
       ignore
         (Hyper.hypercall
            (Hyper.Vm_send
               { dest = Rng.int rng 4; payload = [| Rng.int rng 1000 |] }))
     | 4 -> (
         match Hyper.hypercall Hyper.Vm_recv with
         | Hyper.R_msg (Some _) -> incr msgs
         | _ -> ())
     | 5 -> ignore (Hyper.hypercall (Hyper.Sd_read { block = Rng.int rng 8 }))
     | 6 -> ignore (Hyper.hypercall (Hyper.Irq_enable (-1)))
     | 7 ->
       incr unds;
       ignore
         (Hyper.und_trap
            (match Rng.int rng 3 with
             | 0 -> Hyper.Mrc Hyper.Reg_counter
             | 1 -> Hyper.Mrc Hyper.Reg_l2ctrl
             | _ -> Hyper.Mcr (Hyper.Reg_l2ctrl, Rng.int rng 16)))
     | _ ->
       ignore
         (Hyper.hypercall
            (Hyper.Vtimer_config
               { interval = Cycles.of_us (float_of_int (50 + Rng.int rng 300))
               })));
    ignore (Hyper.pause ())
  done

let drive ~fast p =
  let z = Zynq.create ~observe:true () in
  Fastpath.set_enabled z.Zynq.fast fast;
  let kern =
    Kernel.boot
      ~config:
        { Kernel.default_config with
          quantum = Cycles.of_ms p.quantum_ms;
          vfp_policy = p.vfp_policy }
      z
  in
  let tr = Ktrace.create ~capacity:8192 in
  Kernel.set_trace kern (Some tr);
  let ids =
    List.mapi
      (fun i (variant, priority, gseed, uses_vfp) ->
         (Kernel.create_vm kern
            ~name:(Printf.sprintf "g%d" i)
            ~priority ~uses_vfp (guest_body ~variant ~gseed)).Pd.id)
      p.guests
  in
  Kernel.run kern ~until:(Cycles.of_ms (float_of_int p.run_ms));
  if p.kill_after then begin
    (match ids with
     | id :: _ -> ignore (Kernel.kill_vm kern id ~reason:"equivalence test")
     | [] -> ());
    Kernel.run kern ~until:(Cycles.of_ms (float_of_int (p.run_ms + 5)))
  end;
  (z, kern, tr)

let fingerprint (z, kern, tr) =
  let h = z.Zynq.hier in
  let counters =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (Obs.snapshot z.Zynq.obs).Obs.s_counters)
  in
  let events =
    String.concat "\n"
      (List.map
         (fun e -> Format.asprintf "%a" Ktrace.pp_event e)
         (Ktrace.events tr))
  in
  Printf.sprintf
    "clock=%d hyper=%d crashes=%d alive=%d l1i=%d/%d l1d=%d/%d l2=%d/%d \
     tlb=%d/%d obs[%s] trace[%d dropped %d]\n%s"
    (Clock.now z.Zynq.clock)
    (Kernel.hypercalls kern) (Kernel.crashes kern)
    (Kernel.alive_guests kern)
    (Cache.hits (Hierarchy.l1i h)) (Cache.misses (Hierarchy.l1i h))
    (Cache.hits (Hierarchy.l1d h)) (Cache.misses (Hierarchy.l1d h))
    (Cache.hits (Hierarchy.l2 h)) (Cache.misses (Hierarchy.l2 h))
    (Tlb.hits z.Zynq.tlb) (Tlb.misses z.Zynq.tlb)
    counters
    (List.length (Ktrace.events tr)) (Ktrace.dropped tr)
    events

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) (xs, ys)
      else Printf.sprintf "line %d: fast %S vs ref %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d only in fast: %S" i x
    | [], y :: _ -> Printf.sprintf "line %d only in ref: %S" i y
    | [], [] -> "no textual diff"
  in
  go 0 (la, lb)

let prop_equivalent p =
  let f = fingerprint (drive ~fast:true p) in
  let r = fingerprint (drive ~fast:false p) in
  if not (String.equal f r) then
    QCheck.Test.fail_reportf "control paths diverged for %s:@ %s"
      (show_params p) (first_diff_line f r);
  true

let test_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"kernel control paths: fastpath == reference (random guests)"
       arb_params prop_equivalent)

(* The property above must not pass vacuously: the fast kernel has to
   actually compile and replay control-path trace programs. *)
let test_control_traces_taken () =
  let p =
    { quantum_ms = 1.0; vfp_policy = `Lazy;
      guests = [ (0, 1, 7, true); (1, 2, 13, true) ]; run_ms = 20;
      kill_after = false }
  in
  let unds0 = !unds and msgs0 = !msgs in
  let z, kern, _ = drive ~fast:true p in
  let _, _, warm_replays, warm_records = Fastpath.stats z.Zynq.fast in
  check Alcotest.bool "control-path programs compiled" true
    (warm_records > 0);
  check Alcotest.bool "control-path programs replayed" true
    (warm_replays > 0);
  check Alcotest.bool "hypercalls dispatched" true
    (Kernel.hypercalls kern > 100);
  check Alcotest.bool "UND traps taken" true (!unds > unds0);
  check Alcotest.bool "IPC messages copied" true (!msgs > msgs0);
  check Alcotest.bool "VFP banks switched" true
    ((Kernel.probe kern).Probe.vfp_switch > 0)

(* The property above compares the fast path with the reference walk
   through the same kernel code, so it cannot see a charge the kernel
   drops on both. The IPC copy's per-word cost is a clock advance
   outside its pinned trace: pin it down directly. A guest sends
   itself [words] words and receives them; once warm, the cheapest
   round is the pure path, and payload size changes nothing in it but
   the two per-word charges. *)
let ipc_round_cycles ~fast words =
  let z = Zynq.create () in
  Fastpath.set_enabled z.Zynq.fast fast;
  let kern = Kernel.boot z in
  let me = ref 0 and best = ref max_int in
  let body _ =
    for i = 1 to 40 do
      let t0 = Clock.now z.Zynq.clock in
      ignore
        (Hyper.hypercall
           (Hyper.Vm_send { dest = !me; payload = Array.make words i }));
      (match Hyper.hypercall Hyper.Vm_recv with
       | Hyper.R_msg (Some (_, p)) when Array.length p = words -> ()
       | _ -> Alcotest.fail "own message not received");
      if i > 20 then best := min !best (Clock.now z.Zynq.clock - t0)
    done
  in
  me := (Kernel.create_vm kern ~name:"echo" body).Pd.id;
  Kernel.run kern ~until:(Cycles.of_ms 20.0);
  !best

let test_ipc_per_word_cost () =
  List.iter
    (fun fast ->
       check Alcotest.int
         (Printf.sprintf "send + receive of 64 vs 1 words (fast path %b)" fast)
         (2 * 63 * Costs.ipc_per_word)
         (ipc_round_cycles ~fast 64 - ipc_round_cycles ~fast 1))
    [ true; false ]

(* The VFP bank switch runs as two pinned traces: the next owner's
   load, then the previous owner's store — the reference order of one
   footprint's code, reads, writes. The order shows when both banks are
   one: the owner A dies, B recycles its save slot, and a flush leaves
   every cache cold. Loading first fills B's bank clean from DRAM and
   the store then hits in the L1D, so the L2 copy stays clean; a store
   first would miss and write-allocate the bank dirty into the L2. *)
let bank_dirty_in_l2_after_recycled_switch ~fast =
  let z = Zynq.create () in
  Fastpath.set_enabled z.Zynq.fast fast;
  let kern = Kernel.boot z in
  let rec spin () = ignore (Hyper.pause ()); spin () in
  let a = Kernel.create_vm kern ~name:"a" ~uses_vfp:true (fun _ -> spin ()) in
  Kernel.run kern ~until:(Cycles.of_ms 2.0);
  ignore (Kernel.kill_vm kern a.Pd.id ~reason:"recycle its slot");
  let bank = ref 0 and seen = ref None in
  let b =
    Kernel.create_vm kern ~name:"b" ~uses_vfp:true (fun _ ->
        seen :=
          Some (Cache.dirty_in_range (Hierarchy.l2 z.Zynq.hier) !bank 260);
        spin ())
  in
  bank := fst (Vcpu.save_area b.Pd.vcpu) + 96;
  (* Higher priority, so it runs first: flush everything, then block. *)
  ignore
    (Kernel.create_vm kern ~name:"flusher" ~priority:2 (fun _ ->
         ignore (Hyper.hypercall Hyper.Cache_flush_all);
         ignore (Hyper.idle ());
         spin ()));
  Kernel.run kern ~until:(Cycles.of_ms 4.0);
  check Alcotest.int "b recycled a's save slot" (Vcpu.slot a.Pd.vcpu)
    (Vcpu.slot b.Pd.vcpu);
  !seen

let test_vfp_load_before_store () =
  List.iter
    (fun fast ->
       check Alcotest.(option bool)
         (Printf.sprintf "bank clean in the L2 (fast path %b)" fast)
         (Some false) (bank_dirty_in_l2_after_recycled_switch ~fast))
    [ true; false ]

let suite =
  ( "ctrlpath",
    [ test_equivalence;
      Alcotest.test_case "control traces actually taken" `Quick
        test_control_traces_taken;
      Alcotest.test_case "IPC copy charges its per-word cost" `Quick
        test_ipc_per_word_cost;
      Alcotest.test_case "VFP switch loads before it stores" `Quick
        test_vfp_load_before_store ] )
