(** E8: fleet-scale VM density sweep — hypercall ABI v1 vs v2 (paper
    §V-B), over {!Fleet_cell}.

    Per (ABI × population) cell the sweep quantifies the per-request
    hypercall-path overhead, ring batching depth (manager queue
    depth), PRR utilisation, and the victim's vIRQ-turnaround p50/p99
    under density interference. *)

val default_config : Fleet_cell.config
(** seed 42, 8 VMs, v2, 16 jobs each in batches of 8, dynamic PRRs,
    no faults, the QAM-4 / QAM-16 / FFT-256 catalog walked from kind 0
    by every guest, checking off, 1 pCPU. *)

val default_populations : int list
(** The paper sweep: 8, 32, 64, 128, 256 VMs. *)

val bench_matrix :
  populations:int list -> Fleet_cell.config -> (string * Fleet_cell.config) list
(** Both ABIs at every population over [base], tagged ["v1/8"],
    ["v2/8"], … — or ["v1/8/p4"], … when [pcpus > 1]. Cells are
    independent worlds: run them with {!Parallel_sweep.map}. *)

val report_json : Fleet_cell.report -> Json_out.t
(** One report as a JSON object on one line. *)
