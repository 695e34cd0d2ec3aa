(** Static vs dynamic PRR partitioning study (E10).

    Each cell boots a fresh board, registers the heterogeneous IP
    catalog (QAM, FFT, streaming FFT, scrambler, digest, matmul —
    bitstreams from ~87 KB to ~460 KB, DMA-bound through
    compute-bound) and runs a matched population: VM 0 is a fixed
    µC/OS victim issuing real want_irq hardware jobs, the fleet
    hammers acquire/release pairs over the whole catalog.

    The mode axis is {!Hw_task_manager.partition} — the paper's
    dynamic DPR time-sharing against a Jailhouse-style static baseline
    where each node's PRRs are pinned round-robin across its VMs at
    boot (victim first) and foreign-PRR requests fail fast with
    [Hw_denied]. The chaos axis turns the PL fault plane on, measuring
    isolation under faults. Reports PRR utilisation, reconfiguration
    counts, PCAP traffic, denial rates and the victim's
    vIRQ-turnaround tail. *)

val mode_name : Hw_task_manager.partition -> string
val mode_of_string : string -> (Hw_task_manager.partition, string) result

type config = {
  seed : int;
  vms : int;              (** total guests, victim included *)
  mode : Hw_task_manager.partition;
  chaos : bool;           (** inject PL faults (rate 0.25) *)
  jobs_per_vm : int;
  check : bool;           (** attach the invariant plane + final sweep *)
  pcpus : int;            (** victim pinned to pCPU 0; each node's PL
                              is pinned over that node's own VMs *)
}

val default_config : config
(** seed 42, 5 VMs, dynamic, quiet, 24 jobs each, checking off,
    1 pCPU; chaos cells inject at rate 0.25. *)

val partition_task_set : Task_kind.t array
(** The heterogeneous catalog every cell registers. *)

type report = {
  mode : Hw_task_manager.partition;
  chaos : bool;
  vms : int;
  pcpus : int;
  jobs_per_vm : int;
  jobs_submitted : int;   (** fleet request hypercalls *)
  jobs_ok : int;
  jobs_busy : int;
  jobs_denied : int;      (** static fail-fast refusals *)
  jobs_failed : int;
  requests : int;         (** manager allocation attempts, all clients *)
  reclaims : int;
  reconfigs : int;
  recoveries : int;
  pcap_transfers : int;
  pcap_failures : int;
  victim_jobs : int;
  victim_ok : int;
  victim_dropped : int;
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
(** Boot, populate, pin (static mode), run to guest exhaustion,
    collect. Deterministic in the configuration. *)

val bench_matrix :
  ?seed:int -> ?jobs:int -> ?check:bool -> ?pcpus:int ->
  unit -> (string * config) list
(** The 2×2 study: both modes × quiet/chaos, tagged
    ["dynamic/quiet"], ["dynamic/chaos"], ["static/quiet"],
    ["static/chaos"] (suffixed ["/pN"] when [pcpus > 1]). Cells are
    independent worlds: run them with {!Parallel_sweep.map}. *)

val report_json : report -> Json_out.t
(** One report as a JSON object on one line. *)
