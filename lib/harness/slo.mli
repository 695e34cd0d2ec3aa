(** Open-loop tail-latency SLO plane.

    Replaces the closed-loop Table III workload for latency SLO
    questions: arrivals are generated by a seeded arrival process on
    the simulation event queue — independent of service progress — and
    per-VM workers drain them through the ordinary hardware-task path
    (acquire → verified DMA job → completion vIRQ). The harness
    records per-request service (submit → completion) and sojourn
    (arrival → completion) times in log2 histograms and reports
    p50/p99/p999 via {!Obs.percentile}, plus the maximum manager-queue
    backlog and per-PRR utilisation.

    Determinism: a fixed seed reproduces the report bit for bit, and
    the simulated cycle count is identical with the board's
    observability plane on or off (measurements live in a
    harness-owned registry and never advance the clock). *)

type process =
  | Poisson  (** exponential inter-arrival times *)
  | Bursty   (** on-off modulated Poisson; the long-run rate matches
                 the plain Poisson case, arrivals cluster in ON
                 windows *)

type config = {
  seed : int;
  guests : int;
  process : process;
  arrivals_per_guest : int;
  mean_interarrival_us : float;   (** aggressor VMs (and the victim
                                      when [victim_interarrival_us]
                                      is [None]) *)
  victim_interarrival_us : float option;
                                  (** pin VM 0's rate while aggressor
                                      load varies — the interference
                                      matrix knob *)
  fault_rate : float;             (** chaos plane, as in {!Chaos} *)
  churn_kills : int;              (** VM kill/recreate events spread
                                      over the arrival horizon
                                      (aggressors only) *)
  observe : bool;                 (** board {!Obs} plane (enables the
                                      kernel-side virq_turnaround
                                      cells) *)
  pcpus : int;                    (** simulated pCPUs (default 1). VM g
                                      lives on pCPU [g mod pcpus] for
                                      its whole life (churn recreates
                                      in place), so the victim always
                                      owns pCPU 0; arrival events fire
                                      on the owning node's queue *)
}

val default_config : config
(** seed 42, 3 guests, Poisson, 120 arrivals/guest at 4000 µs mean,
    no victim pin, 33 ms quantum, no faults, no churn, observe off,
    1 pCPU. *)

type vm_stats = {
  vm : int;
  role : string;               (** ["victim"] (VM 0) or ["aggressor"] *)
  arrivals : int;
  served : int;                (** drained from the queue (ok, failed,
                                   or lost to churn) *)
  ok : int;                    (** jobs that verified *)
  dropped : int;               (** acquire gave up, or in-flight at a
                                   churn kill *)
  max_depth : int;             (** max backlog of this VM's queue *)
  service_p50_us : float;
  service_p99_us : float;
  service_p999_us : float;
  service_max_us : float;
  sojourn_p50_us : float;
  sojourn_p99_us : float;
  sojourn_p999_us : float;
  sojourn_max_us : float;
}

type report = {
  guests : int;
  pcpus : int;
  process : process;
  mean_interarrival_us : float;
  victim_interarrival_us : float;  (** resolved (equals the mean when
                                       no pin was given) *)
  arrivals_per_guest : int;
  fault_rate : float;
  churn_kills : int;
  vms : vm_stats list;
  max_depth : int;   (** max total backlog over a pCPU's VM queues
                         (whole-board with one pCPU) *)
  prrs : Fleet.prr_util list;
  injected : int;    (** faults injected, all nodes *)
  kills : int;       (** churn kills actually performed *)
  crashes : int;
  sim_ms : float;
  sim_cycles : int;
  metrics : Obs.snapshot;  (** pCPU 0's board plane (virq_turnaround
                               cells live here when [observe] was on;
                               the victim always runs on pCPU 0) *)
}

val run : ?config:config -> unit -> report
(** One SLO world, end to end. Raises [Invalid_argument] on a config
    with no guests or no arrivals. *)

val bench_matrix : config -> (string * config) list
(** The bench's seven cells over [base]: victim alone, Poisson and
    bursty at low (8000 µs) and high (2500 µs) aggressor load, the
    chaos pair (high load, fault rate 0.1 vs poisson/high's 0.0), and
    churn. VM 0 is pinned at 8000 µs in every cell. Cells are independent
    worlds: run them with {!Parallel_sweep.map}. *)

val report_json : report -> Json_out.t
(** The report as one JSON object on one line. With an enabled board
    snapshot, embeds the per-PD virq_turnaround percentiles (via
    {!Obs.cell_percentile}) and the full metrics snapshot. *)
