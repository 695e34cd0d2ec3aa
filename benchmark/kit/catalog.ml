(* The metric catalogue. BENCHMARK.json lists the same names, units,
   directions and bounds (a test checks that they agree); README.md
   says why each exists and which end-to-end metric it should move. *)

type metric = {
  name : string;
  unit_ : string;
  better : Verdict.better;
  bound : float option;  (* end-to-end only: allowed worsening, share of
                            the parent median *)
}

let m ?bound name unit_ better = { name; unit_; better; bound }
let lower = Verdict.Lower
let higher = Verdict.Higher

(* Obs span components whose simulated cycles are reported per job. *)
let obs_components =
  [ "hypercall"; "world_switch"; "htm_entry"; "htm_exec"; "htm_exit";
    "ring_drain"; "pl_irq"; "pcap"; "recovery" ]

let end_to_end =
  [ m "cpu_norm_s" "s" lower ~bound:0.20;
    m "setup_s" "s" lower ~bound:0.25;
    m "peak_rss_mb" "MB" lower ~bound:0.10;
    m "abi_cycles_per_job" "cycles" lower ~bound:0.10;
    m "job_p50_cycles" "cycles" lower ~bound:0.25;
    m "job_p99_cycles" "cycles" lower ~bound:0.15;
    m "job_ok_ratio" "ratio" higher ~bound:0.05 ]

let per_layer =
  List.map
    (fun l -> m (Layer_clock.name l) "s" lower)
    Layer_clock.all
  @ [ m "cpu_s" "s" lower;
      m "wall_s" "s" lower;
      m "host.speed" "ratio" higher;
      m "trace.overhead_ratio" "ratio" lower;
      m "sim.mcycles_per_host_s" "Mcycles/s" higher;
      m "gc.minor_mwords" "Mwords" lower;
      m "gc.promoted_mwords" "Mwords" lower;
      m "gc.major_collections" "count" lower;
      m "fastpath.mtlb_hit_ratio" "ratio" higher;
      m "fastpath.warm_replay_ratio" "ratio" higher;
      m "smp.epochs" "count" lower;
      m "smp.epoch_host_us" "us" lower;
      m "smp.speedup" "ratio" higher;
      m "smp.ipis" "count" lower;
      m "smp.migrations" "count" lower;
      m "smp.coherence_cycles" "cycles" lower;
      m "cachesim.l1i_miss_ratio" "ratio" lower;
      m "cachesim.l1d_miss_ratio" "ratio" lower;
      m "cachesim.l2_miss_ratio" "ratio" lower;
      m "tlb.miss_ratio" "ratio" lower ]
  @ List.map
      (fun c -> m (Printf.sprintf "sim.%s_cycles_per_job" c) "cycles" lower)
      obs_components
  @ [ m "kernel.hypercalls_per_job" "count" lower;
      m "kernel.switches_per_job" "count" lower;
      m "hwtm.reconfigs_per_job" "count" lower;
      m "hwtm.reclaims_per_job" "count" lower;
      m "hwtm.recoveries" "count" lower;
      m "ring.mean_batch" "count" higher;
      m "ring.virqs_per_job" "count" lower;
      m "check.sweeps" "count" lower;
      m "gen.lateness_p99_cycles" "cycles" lower ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
