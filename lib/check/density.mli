(** Fleet-scale VM density sweep: hypercall ABI v1 vs v2 (paper §V-B).

    Each cell boots a fresh board with [vms] guests: VM 0 is a fixed
    µC/OS victim running real want_irq hardware jobs (identical in
    every cell, so its completion-vIRQ turnaround percentiles compare
    across modes and populations), and the fleet submits
    [jobs_per_vm] acquire/release pairs each through the ABI under
    test — per-job [Hw_task_request]/[Hw_task_release] hypercalls
    (v1) or descriptor-ring batches published with a single
    [Ring_doorbell] (v2). Fleet guests are bare effect guests, so
    their per-PD hypercall observability cells count exactly the
    guest→kernel ABI transitions the comparison is about.

    The sweep quantifies, per (mode × population) cell: per-request
    hypercall-path overhead, ring batching depth (manager queue
    depth), PRR utilisation, and the victim's vIRQ-turnaround p50/p99
    under density interference. *)

type mode = V1 | V2

val mode_name : mode -> string
val mode_of_string : string -> (mode, string) result

type config = {
  seed : int;
  vms : int;           (** total guests, victim included *)
  mode : mode;
  jobs_per_vm : int;
  batch : int;         (** request descriptors per doorbell (v2) *)
  cvirq_budget : int;  (** completions per moderated vIRQ; 0 = polling *)
  fault_rate : float;
  check : bool;        (** attach the invariant plane + final sweep *)
  pcpus : int;         (** simulated pCPUs; the victim is pinned to
                           pCPU 0, the fleet is placed round-robin,
                           and [> 1] runs the cell as an {!Smp}
                           complex (parallel on OCaml domains,
                           bit-identical for any host core count) *)
  ring_admission : [ `Fifo | `Deadline ];
      (** doorbell-batch admission order
          ({!Kernel.config}[.ring_admission]) *)
}

val default_config : config
(** seed 42, 8 VMs, v2, 16 jobs each in batches of 8 on 32-entry
    rings, no faults, checking off, 1 pCPU, FIFO admission. *)

type report = {
  mode : mode;
  vms : int;
  pcpus : int;
  jobs_per_vm : int;
  batch : int;
  jobs_submitted : int;     (** fleet request descriptors/hypercalls *)
  jobs_ok : int;
  jobs_busy : int;
  jobs_failed : int;
  transitions : int;        (** fleet guest→kernel hypercall entries *)
  transitions_per_job : float;
  overhead_us_per_job : float;
      (** fleet cycles spent inside the hypercall path per submitted
          job — the per-request ABI overhead of the sweep *)
  hypercalls : int;         (** whole-board total, victim included *)
  ring : Kernel.ring_stats; (** [rs_max_batch] is the manager queue
                                depth reached by doorbell coalescing *)
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
  victim_virqs : int;
  victim_p50_us : float;
  victim_p99_us : float;
  prrs : Fleet.prr_util list;
  injected : int;
  crashes : int;
  alive_after : int;
  sim_ms : float;
  sim_cycles : int;
}

val run : ?config:config -> unit -> report
(** Boot, populate, run to guest exhaustion, collect. Deterministic in
    the configuration. *)

val default_populations : int list
(** The paper sweep: 8, 32, 64, 128, 256 VMs. *)

val bench_matrix :
  ?seed:int -> ?populations:int list -> ?jobs:int -> ?batch:int ->
  ?cvirq_budget:int -> ?fault_rate:float -> ?check:bool -> ?pcpus:int ->
  ?ring_admission:[ `Fifo | `Deadline ] -> unit -> (string * config) list
(** Both modes at every population, tagged ["v1/8"], ["v2/8"], … —
    or ["v1/8/p4"], … when [pcpus > 1]. Cells are independent worlds:
    run them with {!Parallel_sweep.map}. *)

val report_json : report -> Json_out.t
(** One report as a JSON object on one line. *)
