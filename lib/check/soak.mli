(** Deterministic VM-lifecycle soak engine.

    Drives a freshly booted kernel with millions of seeded operations —
    VM creates and kills, hypercall storms from four guest profiles,
    DPR load/unload churn, event-queue probes and cancels — evaluating
    the {!Invariant} plane after every host-side action. Everything is
    derived from the configuration seed, so a run is bit-reproducible:
    same config, same {!stats} fingerprint.

    On a violation the engine captures the applied action trace,
    greedily shrinks it (delta debugging with a bounded replay budget)
    to a minimal trace that still trips the {e same} checker, and can
    write it as a reproducer file: {!load_reproducer} then {!replay}
    drives it again. *)

type config = {
  ops : int;          (** stop after this many ops (hypercalls + lifecycle actions) *)
  seed : int;         (** master seed for the action stream *)
  max_vms : int;      (** cap on concurrently live guests *)
  check : bool;       (** evaluate invariants after every action *)
  fault_rate : float; (** PL fault-injection rate, as in [chaos --fault-rate] *)
  fault_seed : int;
  quantum_ms : float; (** scheduling quantum *)
  pcpus : int;        (** simulated pCPUs; 1 drives a single kernel
                          exactly as before, [> 1] boots an {!Smp}
                          complex (per-CPU run queues, epoch-barrier
                          coupling) and checks the SMP invariant plane
                          at every action boundary *)
}

val default_config : config
(** 200k ops, seed 1, 6 VMs, checking on, fault rate 0.1, 1 pCPU. *)

type action =
  | A_create of { profile : int; prio : int; gseed : int }
      (** create a VM running guest profile [profile mod 5]
          (0 = hypercall storm, 1 = page-table mapper, 2 = DPR churn,
          3 = µC/OS hardware jobs, 4 = ABI v2 ring churn), seeded by
          [gseed] *)
  | A_kill of int     (** kill the [i mod n]-th live guest (sorted by id) *)
  | A_run of int      (** run the kernel for this many microseconds *)
  | A_probe of int    (** schedule a no-op event this many cycles out *)
  | A_probe_cancel of int
      (** cancel the [k mod n]-th probe ever scheduled — including ones
          that already fired, exercising cancel-after-fire *)
  | A_ring_burst of { pick : int; n : int }
      (** write [n] raw descriptors host-side into the [pick mod r]-th
          live descriptor ring and publish the tail, without ringing
          the doorbell: kills racing an injected burst must reclaim
          the undrained descriptors *)
  | A_task_churn of { kind : int }
      (** register a catalog kind ([kind mod 6]) and destroy the oldest
          churned task once four are live — steady register/destroy
          pressure on the bitstream-store recycler *)

val action_to_string : action -> string

type stats = {
  ops_done : int;
  actions : int;
  creates : int;
  kills : int;
  crashes : int;
  hypercalls : int;
  live_vms : int;
  checks : int;          (** invariant sweeps evaluated *)
  final_cycles : Cycles.t;
}
(** Determinism fingerprint: two runs of the same config must produce
    equal stats. *)

val stats_json : stats -> Json_out.t
(** One flat JSON object, one member per field, cycles exact. *)

type outcome =
  | Clean of stats
  | Violated of {
      violation : Invariant.violation;
      shrunk : action list;  (** minimized trace tripping the same checker *)
      stats : stats;         (** [actions] is the full trace's length *)
    }

(** {2 Runs}

    A soak splits the operation budget into [shards] independent
    action streams, each booting its own world from a seed derived
    with {!shard_seed}, and runs them on OCaml domains via
    [Parallel_sweep]. The decomposition — and therefore every shard's
    outcome, the merged statistics and any violation — is fixed by
    [shards] alone; the domain budget
    ({!Parallel_sweep.default_domains}) only controls how many shards
    execute concurrently, so a sharded run is bit-identical under any
    domain count, including fully serial [MININOVA_DOMAINS=1]. *)

val stats_of_outcome : outcome -> stats
(** The final stats either way — a run's determinism fingerprint. *)

val shard_seed : seed:int -> shard:int -> int
(** Derived per-shard master seed (splitmix64 finalizer over
    [(seed, shard)]); always non-negative. *)

val shard_config : config -> shards:int -> shard:int -> config
(** The configuration shard [shard] of [shards] actually runs: the ops
    budget split evenly (earlier shards absorb the remainder) and the
    seed replaced by {!shard_seed}. With [shards <= 1] this is the
    input configuration unchanged: a 1-shard {!run} drives [config]
    itself. *)

type shard_report = {
  shard : int;
  shard_cfg : config;   (** what this shard ran, as {!shard_config} *)
  outcome : outcome;
  wall_s : float;       (** host wall time of this shard (not part of
                            the determinism fingerprint) *)
}

type sharded = {
  reports : shard_report list;    (** in shard order *)
  merged_stats : stats;           (** field-wise sum over all shards *)
  first_violated : shard_report option;
      (** lowest-indexed violating shard; its [shard_cfg] + shrunk
          trace written with {!write_reproducer} replay single-domain
          through {!load_reproducer} and {!replay} *)
}

val run : ?shards:int -> config -> sharded
(** Generate-and-drive from the seed: run [shards] (default 1) derived
    configurations, concurrently up to the [Parallel_sweep] domain
    budget, and merge. A violating shard shrinks its own trace. *)

val replay : config -> action list -> outcome
(** Drive an explicit action list (no shrinking). *)

val write_reproducer :
  string -> config -> Invariant.violation -> shrunk:action list -> unit
(** Write a self-contained reproducer file: config header plus one
    action per line. *)

val load_reproducer : string -> (config * action list, string) result
