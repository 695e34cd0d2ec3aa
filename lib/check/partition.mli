(** E10: static vs dynamic PRR partitioning, over {!Fleet_cell}.

    Each cell registers the heterogeneous IP catalog (QAM, FFT,
    streaming FFT, scrambler, digest, matmul — bitstreams from ~87 KB
    to ~460 KB, DMA-bound through compute-bound) beside the fixed
    µC/OS victim; the ABI v1 fleet hammers acquire/release pairs over
    the whole catalog. The mode axis is {!Hw_task_manager.partition} —
    the paper's dynamic DPR time-sharing against a Jailhouse-style
    static baseline. The chaos axis turns the PL fault plane on,
    measuring isolation under faults. Reports PRR utilisation,
    reconfiguration counts, PCAP traffic, denial rates and the
    victim's vIRQ-turnaround tail. *)

val partition_task_set : Task_kind.t array
(** The heterogeneous catalog every cell registers. *)

val default_config : Fleet_cell.config
(** seed 42, 5 VMs, 24 jobs each, ABI v1, dynamic PRRs, no faults,
    the {!partition_task_set} catalog with staggered walks, checking
    off, 1 pCPU. *)

val bench_matrix : Fleet_cell.config -> (string * Fleet_cell.config) list
(** The 2×2 study over [base]: both partitions × quiet (fault rate 0)
    / chaos (fault rate 0.25), tagged ["dynamic/quiet"],
    ["dynamic/chaos"], ["static/quiet"], ["static/chaos"] (suffixed
    ["/pN"] when [pcpus > 1]). Cells are independent worlds: run them
    with {!Parallel_sweep.map}. *)

val report_json : Fleet_cell.report -> Json_out.t
(** One report as a JSON object on one line; a cell with a non-zero
    fault rate reports ["chaos": true]. *)
