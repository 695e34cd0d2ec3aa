(** One victim-plus-fleet cell: the world the density (E8) and
    partitioning (E10) studies both sweep.

    A cell boots a fresh board, registers the task catalog and runs
    [vms] guests to completion. VM 0 is a fixed µC/OS victim pinned to
    pCPU 0, running real want_irq hardware jobs; its completion-vIRQ
    turnaround percentiles compare across cells. The other [vms - 1]
    fleet guests are bare effect guests, each submitting [jobs_per_vm]
    acquire/release pairs through the ABI under test — per-job
    [Hw_task_request]/[Hw_task_release] hypercalls (v1) or
    descriptor-ring batches published with one [Ring_doorbell] (v2) —
    and retrying [Hw_busy] up to three times. Their per-PD hypercall
    observability cells count exactly the guest→kernel ABI
    transitions. Under [Static] partitioning each node's PRRs are
    pinned round-robin across that node's VMs at boot (victim first)
    and foreign-PRR requests fail fast with [Hw_denied]. *)

type abi = V1 | V2

type config = {
  seed : int;
  vms : int;              (** total guests, victim included *)
  jobs_per_vm : int;
  abi : abi;              (** the fleet's hypercall ABI *)
  batch : int;            (** request descriptors per doorbell (v2) *)
  partition : Hw_task_manager.partition;
  fault_rate : float;     (** PL fault plane rate (seed 7 + cpu) *)
  tasks : Task_kind.t array;  (** the catalog every guest cycles over *)
  stagger : bool;         (** fleet guest [i] starts its catalog walk
                              at [i + 1] rather than 0 *)
  check : bool;           (** attach the invariant plane + final sweep *)
  pcpus : int;            (** simulated pCPUs; the victim is pinned to
                              pCPU 0, the fleet is placed round-robin,
                              and [> 1] runs the cell as an {!Smp}
                              complex (bit-identical for any host
                              domain count) *)
}

val cvirq_budget : int
(** Completions per moderated vIRQ on every v2 fleet ring (8). *)

type report = {
  config : config;
  jobs_submitted : int;     (** fleet request descriptors/hypercalls *)
  jobs_ok : int;
  jobs_busy : int;          (** given up after the busy retries *)
  jobs_denied : int;        (** static fail-fast refusals *)
  jobs_failed : int;
  transitions : int;        (** fleet guest→kernel hypercall entries *)
  transitions_per_job : float;
  overhead_us_per_job : float;
      (** fleet cycles spent inside the hypercall path per submitted
          job — the per-request ABI overhead *)
  hypercalls : int;         (** whole-board total, victim included *)
  ring : Kernel.ring_stats; (** summed over nodes; [rs_max_batch] is the
                                deepest doorbell batch on any node *)
  requests : int;           (** manager allocation attempts, all clients *)
  reclaims : int;
  reconfigs : int;
  recoveries : int;
  pcap_transfers : int;
  pcap_failures : int;
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
  victim_virqs : int;       (** completion-vIRQ turnaround samples *)
  victim_p50_us : float;
  victim_p99_us : float;
  prrs : Fleet.prr_util list;
  injected : int;
  crashes : int;
  alive_after : int;
  sim_ms : float;
  sim_cycles : int;
}

val run : config -> report
(** Boot, populate, pin (static partitioning), run to guest
    exhaustion, collect. Deterministic in the configuration. Raises
    [Invalid_argument] on a config with no VM, pCPU or job, more VMs
    than guest slots, or a batch outside [1, 16]: a v2 round enqueues
    the batch plus the previous round's releases on a 32-entry ring. *)
