(* The SMP complex (lib/core/smp.ml): quantum-barrier determinism,
   host-domain independence, pcpus-1 delegation identity, idle-balance
   migration, IPI/shootdown conservation, and the kill/migration race
   property under ASID pressure — the per-CPU invariant plane armed
   throughout. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let clean smp boundary =
  Alcotest.(check (list string))
    (Printf.sprintf "invariants clean at %s" boundary)
    []
    (List.map Invariant.violation_to_string
       (Invariant.check_smp smp ~boundary))

(* Cross-node IPC storm guest: send a tagged payload to the next peer
   in the ring, try one receive, pause; exit after [iters] rounds.
   Peer ids land in [ids] after every VM exists — guests only start
   running inside [Smp.run], and the array is immutable from then on,
   so reading it from whichever domain simulates the node is safe. *)
let storm ~ids ~me ~iters _genv =
  for i = 1 to iters do
    let peers = Array.length !ids in
    if peers > 1 then begin
      let dest = !ids.((me + 1) mod peers) in
      ignore
        (Hyper.hypercall (Hyper.Vm_send { dest; payload = [| me; i |] }));
      ignore (Hyper.hypercall Hyper.Vm_recv)
    end;
    ignore (Hyper.pause ())
  done

(* Sleeper guest: blocks in [Vm_idle] forever — it stays alive (and
   keeps its ASID tag) until something kills it, waking only when a
   vIRQ (e.g. a cross-CPU message doorbell) is delivered. *)
let sleeper _genv =
  while true do
    ignore (Hyper.idle ())
  done

let build_storm ?workers ?(linger = false) ~pcpus ~guests ~iters () =
  let smp =
    Smp.create ?workers ~pcpus ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  let ids = ref [||] in
  let main ~me genv =
    storm ~ids ~me ~iters:(iters + (3 * me)) genv;
    if linger then sleeper genv
  in
  let pds =
    Array.init guests (fun g ->
        Smp.create_vm smp ~name:(Printf.sprintf "g%d" g) (main ~me:g))
  in
  ids := Array.map (fun (pd : Pd.t) -> pd.Pd.id) pds;
  smp

let fingerprint smp =
  let s = Smp.stats smp in
  let clocks =
    String.concat ","
      (List.init (Smp.pcpus smp) (fun c ->
           string_of_int (Clock.now (Smp.zynq smp c).Zynq.clock)))
  in
  Printf.sprintf
    "now=%d hc=%d crash=%d alive=%d dir=%s clocks=%s ipi=%d/%d/%d \
     shoot=%d/%d mig=%d coh=%d/%d cont=%d"
    (Smp.now smp) (Smp.hypercalls smp) (Smp.crashes smp)
    (Smp.alive_guests smp)
    (String.concat ","
       (List.map
          (fun (id, cpu) -> Printf.sprintf "%d:%d" id cpu)
          (Smp.directory smp)))
    clocks s.Smp.s_ipis_posted s.Smp.s_ipis_delivered s.Smp.s_ipis_dropped
    s.Smp.s_shootdowns_posted s.Smp.s_shootdowns_completed
    s.Smp.s_migrations s.Smp.s_coherence_lines s.Smp.s_coherence_cycles
    s.Smp.s_contention_cycles

(* ------------------------------------------------------------------ *)
(* Determinism: the same pcpus=3 storm is bit-identical run to run,    *)
(* and for ANY host worker count — the quantum-barrier promise.        *)

let storm_fp ?workers () =
  let smp = build_storm ?workers ~pcpus:3 ~guests:6 ~iters:25 () in
  Invariant.attach_smp smp;
  Smp.run smp ~until:(Cycles.of_ms 300.0);
  clean smp "final";
  fingerprint smp

let test_determinism () =
  let a = storm_fp ~workers:1 () in
  let b = storm_fp ~workers:1 () in
  check cs "identical run to run" a b

let test_domain_count_independence () =
  let serial = storm_fp ~workers:1 () in
  let par3 = storm_fp ~workers:3 () in
  let par8 = storm_fp ~workers:8 () in
  check cs "1 worker == 3 workers" serial par3;
  check cs "1 worker == 8 workers" serial par8

(* The host pool is shared with unrelated callers: a sweep run between
   two slices of a 2-worker complex leaves its results untouched. *)
let test_pool_shared_between_slices () =
  let smp = build_storm ~workers:2 ~pcpus:3 ~guests:6 ~iters:25 () in
  Invariant.attach_smp smp;
  Smp.run_for smp (Cycles.of_ms 150.0);
  check (Alcotest.list Alcotest.int) "an unrelated sweep" [ 0; 2; 4; 6 ]
    (Parallel_sweep.map ~domains:3 (fun i -> 2 * i) [ 0; 1; 2; 3 ]);
  Smp.run_for smp (Cycles.of_ms 150.0);
  clean smp "final";
  check cs "== the 1-worker fingerprint" (storm_fp ~workers:1 ())
    (fingerprint smp)

(* ------------------------------------------------------------------ *)
(* An epoch with at most one busy node runs on the calling domain.     *)

(* One guest per pCPU; the guests on pCPUs 1-3 finish after a few
   epochs and pCPU 0's runs on alone. Returns the fingerprint, the
   epochs that started with two or more busy nodes and with one, and
   the pool jobs each kind posted. *)
let lone_node_run ~workers =
  let smp =
    Smp.create ~workers ~pcpus:4 ~epoch:(Cycles.of_us 20.0)
      ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  let worker ~rounds _genv =
    for _ = 1 to rounds do
      ignore (Hyper.hypercall Hyper.Vm_recv);
      ignore (Hyper.pause ())
    done
  in
  for cpu = 0 to 3 do
    ignore
      (Smp.create_vm smp ~cpu ~name:(Printf.sprintf "g%d" cpu)
         (worker ~rounds:(if cpu = 0 then 600 else 40 * cpu)))
  done;
  let busy () =
    List.length
      (List.filter
         (fun cpu -> Kernel.alive_guests (Smp.kernel smp cpu) > 0)
         [ 0; 1; 2; 3 ])
  in
  (* The state after a barrier is the state the next epoch starts in. *)
  let starting = ref (busy ()) and mark = ref (Parallel_sweep.handouts ()) in
  let epochs = [| 0; 0 |] and posted = [| 0; 0 |] in
  Smp.set_barrier_hook smp
    (Some
       (fun () ->
          let k = if !starting >= 2 then 0 else 1 in
          let now = Parallel_sweep.handouts () in
          epochs.(k) <- epochs.(k) + 1;
          posted.(k) <- posted.(k) + (now - !mark);
          mark := now;
          starting := busy ()));
  Smp.run smp ~until:(Cycles.of_ms 50.0);
  check ci (Printf.sprintf "every guest finished at %d workers" workers) 0
    (Smp.alive_guests smp);
  (fingerprint smp, epochs, posted)

let test_lone_node_epochs_inline () =
  let fp1, epochs, posted1 = lone_node_run ~workers:1 in
  let fp2, epochs2, posted2 = lone_node_run ~workers:2 in
  let fp4, _, posted4 = lone_node_run ~workers:4 in
  check cs "2 workers == 1 worker" fp1 fp2;
  check cs "4 workers == 1 worker" fp1 fp4;
  check cb "some epochs start with several busy nodes" true (epochs.(0) > 0);
  check cb "some epochs start with one" true (epochs.(1) > 0);
  check (Alcotest.array ci) "the same epochs at 2 workers" epochs epochs2;
  check ci "1 worker posts no pool job" 0 (posted1.(0) + posted1.(1));
  check ci "one-busy-node epochs post nothing at 2 workers" 0 posted2.(1);
  check ci "one-busy-node epochs post nothing at 4 workers" 0 posted4.(1);
  check ci "every other epoch posts one job at 2 workers" epochs.(0)
    posted2.(0)

(* ------------------------------------------------------------------ *)
(* pcpus = 1 is pure delegation: bit-identical to driving the kernel   *)
(* directly, including the id space.                                   *)

let delegation_world create_vm =
  let ids = ref [||] in
  let pds =
    Array.init 4 (fun g ->
        create_vm (Printf.sprintf "g%d" g) (storm ~ids ~me:g ~iters:20))
  in
  ids := Array.map (fun (pd : Pd.t) -> pd.Pd.id) pds

let test_pcpus1_delegates_to_kernel () =
  let z = Zynq.create ~cpu:0 () in
  let kern = Kernel.boot z in
  delegation_world (fun name main -> Kernel.create_vm kern ~name main);
  Kernel.run kern ~until:(Cycles.of_ms 200.0);
  let smp =
    Smp.create ~pcpus:1 ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  delegation_world (fun name main -> Smp.create_vm smp ~name main);
  Smp.run smp ~until:(Cycles.of_ms 200.0);
  check ci "identical final clocks" (Clock.now z.Zynq.clock) (Smp.now smp);
  check ci "identical hypercall counts" (Kernel.hypercalls kern)
    (Smp.hypercalls smp);
  check ci "identical crash counts" (Kernel.crashes kern) (Smp.crashes smp);
  check ci "identical survivors" (Kernel.alive_guests kern)
    (Smp.alive_guests smp);
  let s = Smp.stats smp in
  check ci "no IPIs at pcpus 1" 0 s.Smp.s_ipis_posted;
  check ci "no coherence traffic at pcpus 1" 0 s.Smp.s_coherence_cycles

(* ------------------------------------------------------------------ *)
(* IPI conservation across a full storm: posted = delivered + dropped, *)
(* outboxes empty at the end, invariants clean. Guests linger in       *)
(* [Vm_idle] after their storm so cross-node messages posted in one    *)
(* epoch find live (blocked) receivers at the barrier — delivery must  *)
(* actually happen, not just conservation over universal drops.        *)

let test_ipi_conservation () =
  let smp = build_storm ~linger:true ~pcpus:2 ~guests:4 ~iters:15 () in
  Invariant.attach_smp smp;
  Smp.run smp ~until:(Cycles.of_ms 300.0);
  let s = Smp.stats smp in
  check cb "cross-CPU IPIs flowed" true (s.Smp.s_ipis_posted > 0);
  check cb "some were delivered" true (s.Smp.s_ipis_delivered > 0);
  check ci "posted = delivered + dropped" s.Smp.s_ipis_posted
    (s.Smp.s_ipis_delivered + s.Smp.s_ipis_dropped);
  check cb "outboxes drained" true (Smp.outboxes_empty smp);
  clean smp "final"

(* Posts happen inside the parallel phase, one domain per node: the
   post counters must not lose increments when four workers run the
   storm at once. Repeated because a lost update is a race. *)
let test_ipi_counters_under_workers () =
  for run = 1 to 20 do
    let smp =
      build_storm ~workers:4 ~linger:true ~pcpus:4 ~guests:8 ~iters:15 ()
    in
    Smp.run smp ~until:(Cycles.of_ms 100.0);
    let s = Smp.stats smp in
    check cb "cross-CPU IPIs flowed" true (s.Smp.s_ipis_posted > 0);
    check ci
      (Printf.sprintf "run %d: posted = delivered + dropped" run)
      s.Smp.s_ipis_posted
      (s.Smp.s_ipis_delivered + s.Smp.s_ipis_dropped)
  done

(* ------------------------------------------------------------------ *)
(* Idle-balance migration: with a tiny epoch, pCPU 0's long queue of   *)
(* never-started guests is visible at a barrier while pCPU 1 idles,    *)
(* and the balancer steals across — the directory follows.             *)

let test_idle_balance_migration () =
  let smp =
    Smp.create ~pcpus:2 ~epoch:(Cycles.of_us 1.0)
      ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  Invariant.attach_smp smp;
  let pds =
    Array.init 6 (fun g ->
        Smp.create_vm smp ~name:(Printf.sprintf "m%d" g) ~cpu:0 sleeper)
  in
  Smp.run_for smp (Cycles.of_ms 0.5);
  let s = Smp.stats smp in
  check cb "idle balance stole work" true (s.Smp.s_migrations >= 2);
  check ci "everyone still alive" 6 (Smp.alive_guests smp);
  let on_cpu1 =
    Array.fold_left
      (fun acc (pd : Pd.t) ->
         acc + (if Smp.vm_cpu smp pd.Pd.id = Some 1 then 1 else 0))
      0 pds
  in
  check cb "directory shows migrants on pCPU 1" true (on_cpu1 >= 1);
  check ci "migration count matches placement" on_cpu1 s.Smp.s_migrations;
  clean smp "final"

(* Both nodes full: pCPU 1's sleepers block and empty its run queue
   while pCPU 0's 255 never-started spinners wait. Balance must leave
   them where they are rather than create a VM on a pCPU with no guest
   window left. *)
let test_balance_skips_full_pcpu () =
  let smp =
    Smp.create ~pcpus:2 ~epoch:(Cycles.of_us 10.0)
      ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  let spinner _genv = while true do ignore (Hyper.pause ()) done in
  for g = 0 to Address_map.guest_slot_count - 1 do
    ignore (Smp.create_vm smp ~name:(Printf.sprintf "s%d" g) ~cpu:0 spinner);
    ignore (Smp.create_vm smp ~name:(Printf.sprintf "z%d" g) ~cpu:1 sleeper)
  done;
  check cb "pCPU 1 is full" false (Kernel.can_admit (Smp.kernel smp 1));
  Smp.run_for smp (Cycles.of_ms 2.0);
  check ci "pCPU 1's run queue drained" 0
    (Sched.count (Kernel.sched (Smp.kernel smp 1)));
  check ci "no migration into a full pCPU" 0 (Smp.stats smp).Smp.s_migrations;
  check ci "everyone still alive" (2 * Address_map.guest_slot_count)
    (Smp.alive_guests smp)

(* Migration reaps on the source pCPU and kills reap on the target:
   round after round of fresh sleepers on pCPU 0, some migrated to the
   idle pCPU 1, all killed. More rounds than pCPU 0 has guest windows,
   so a window or save slot that a retract or kill failed to return
   would exhaust a pCPU. *)
let test_migration_churn_returns_slots () =
  let smp =
    Smp.create ~pcpus:2 ~epoch:(Cycles.of_us 1.0)
      ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  for round = 1 to Address_map.guest_slot_count + 45 do
    let pds =
      List.init 4 (fun g ->
          Smp.create_vm smp ~name:(Printf.sprintf "c%d.%d" round g) ~cpu:0
            sleeper)
    in
    Smp.run_for smp (Cycles.of_us 3.0);
    List.iter
      (fun (pd : Pd.t) -> ignore (Smp.kill_vm smp pd.Pd.id ~reason:"churn"))
      pds
  done;
  check cb "more migrations than pCPU 0 has slots" true
    ((Smp.stats smp).Smp.s_migrations > Address_map.guest_slot_count);
  check cb "pCPU 0 can still admit" true (Kernel.can_admit (Smp.kernel smp 0));
  check cb "pCPU 1 can still admit" true (Kernel.can_admit (Smp.kernel smp 1));
  clean smp "final"

(* ------------------------------------------------------------------ *)
(* Kill/migration race property: both nodes packed past the 254 guest  *)
(* ASID tags — 256 pinned sleepers per node all take a tag on first    *)
(* dispatch and then hold it while blocked in [Vm_idle], so the last   *)
(* dispatches must steal tags and post IPI-driven cross-CPU            *)
(* shootdowns. A few "poker" guests keep firing [Vm_send] wake-ups at  *)
(* deterministic pseudo-random victims: a woken victim whose tag was   *)
(* stolen steals again on redispatch, cascading further shootdowns.    *)
(* Between slices a seeded adversary kills a random live VM —          *)
(* frequently one on the remote pCPU with a shootdown it caused still  *)
(* pending. Checkers #1-#9 run per node and the three SMP checkers     *)
(* run at every slice, every kill, and (via attach_smp) every epoch    *)
(* barrier.                                                            *)

let test_kill_race_under_asid_pressure () =
  let pcpus = 2 in
  let smp =
    Smp.create ~pcpus ~mk_zynq:(fun cpu -> Zynq.create ~cpu ()) ()
  in
  Invariant.attach_smp smp;
  let per_node = 256 in
  let total = pcpus * per_node in
  let ids = ref [||] in
  let poker ~me genv =
    for i = 1 to 40 do
      let n = Array.length !ids in
      let dest = !ids.(((me * 31) + (i * 7)) mod n) in
      ignore
        (Hyper.hypercall (Hyper.Vm_send { dest; payload = [| me; i |] }));
      ignore (Hyper.pause ())
    done;
    sleeper genv
  in
  let pds =
    Array.init total (fun g ->
        let main = if g < 2 * pcpus then poker ~me:g else sleeper in
        Smp.create_vm smp
          ~name:(Printf.sprintf "p%d" g)
          ~cpu:(g mod pcpus) main)
  in
  ids := Array.map (fun (pd : Pd.t) -> pd.Pd.id) pds;
  clean smp "populated";
  let rng = Rng.create ~seed:0xC0FFEE in
  let kills = ref 0 in
  for _round = 1 to 24 do
    Smp.run_for smp (Cycles.of_ms 1.0);
    clean smp "slice";
    match Smp.directory smp with
    | [] -> ()
    | dir ->
      let id, _cpu = List.nth dir (Rng.int rng (List.length dir)) in
      if Smp.kill_vm smp id ~reason:"race" then incr kills;
      clean smp "kill"
  done;
  Smp.run_for smp (Cycles.of_ms 5.0);
  clean smp "drained";
  let s = Smp.stats smp in
  check cb "kills actually raced the complex" true (!kills > 0);
  check ci "sleepers survived everything but the kills" (total - !kills)
    (Smp.alive_guests smp);
  check cb "ASID pressure posted shootdowns" true
    (s.Smp.s_shootdowns_posted > 0);
  check ci "every shootdown reached every other pCPU"
    (s.Smp.s_shootdowns_posted * (pcpus - 1))
    s.Smp.s_shootdowns_completed;
  check ci "IPI conservation closed" s.Smp.s_ipis_posted
    (s.Smp.s_ipis_delivered + s.Smp.s_ipis_dropped);
  check cb "outboxes drained" true (Smp.outboxes_empty smp)

(* The GIC addresses at most [Smp.max_pcpus] CPU interfaces: a larger
   count is refused before any board is made. *)
let test_pcpus_bounded () =
  List.iter
    (fun pcpus ->
       match
         Smp.create ~pcpus ~mk_zynq:(fun _ -> Alcotest.fail "booted a board") ()
       with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "Smp.create accepted %d pCPUs" pcpus)
    [ 0; Smp.max_pcpus + 1; max_int ];
  check ci "the bound" 8 Smp.max_pcpus

let suite =
  ( "smp",
    let t = Alcotest.test_case in
    [ t "quantum-barrier determinism" `Quick test_determinism;
      t "host domain-count independence" `Quick
        test_domain_count_independence;
      t "pcpus-1 delegation identity" `Quick test_pcpus1_delegates_to_kernel;
      t "IPI conservation" `Quick test_ipi_conservation;
      t "IPI counters under 4 workers" `Quick test_ipi_counters_under_workers;
      t "idle-balance migration" `Quick test_idle_balance_migration;
      t "kill race under ASID pressure" `Slow
        test_kill_race_under_asid_pressure;
      t "pool shared between run slices" `Quick
        test_pool_shared_between_slices;
      t "one-busy-node epochs run inline" `Quick
        test_lone_node_epochs_inline;
      t "balance skips a full pCPU" `Quick test_balance_skips_full_pcpu;
      t "migration churn returns every slot" `Quick
        test_migration_churn_returns_slots;
      t "pcpus bounded by the GIC" `Quick test_pcpus_bounded ] )
