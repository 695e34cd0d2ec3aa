(** Chaos scenario: the evaluation workload under fault injection.

    Arms the board's {!Fault_plane} and runs 1–4 guests whose T_hw
    task acquires hardware tasks with exponential backoff and streams
    a verified DMA job on every acquire. Reports how the kernel's
    graceful-degradation machinery (retry, hung-IP reset, quarantine,
    offender kill) holds the job-completion rate as the fault rate
    rises, plus the manager overhead in the style of Table III.

    Deterministic: a fixed [fault_seed] and workload seed reproduce
    the same injections, recoveries and report bit-for-bit. With
    [fault_rate = 0.0] the run is fault-free — zero injections, zero
    recoveries, completion rate 1.0. *)

type config = {
  base : Scenario.config;  (** seed, request count, quantum, policies *)
  fault_rate : float;      (** per-opportunity injection probability *)
  fault_seed : int;        (** fault plane RNG seed *)
}

val default_config : config
(** 40 requests per guest, rate 0.1, seed 7. *)

type report = {
  guests : int;
  fault_rate : float;
  injected : int;                    (** fault-plane injections *)
  injected_by : (string * int) list; (** per fault kind *)
  recoveries : int;      (** manager recovery actions *)
  reconfig_retries : int;
  hang_resets : int;
  quarantines : int;
  fault_kills : int;     (** VMs killed over the violation limit *)
  busy_retries : int;    (** guest-side [Hw_busy] backoff retries *)
  denied : int;          (** acquires that gave up (busy/fault/lost) *)
  jobs_attempted : int;
  jobs_ok : int;         (** jobs completed with a verified result *)
  completion_rate : float;  (** jobs_ok / jobs_attempted *)
  crashes : int;         (** unhandled guest crashes — must stay 0 *)
  mgr_total_us : float;  (** manager entry + execution + exit mean *)
  sim_ms : float;
  metrics : Obs.snapshot;  (** whole-run observability snapshot (shaped
                               like {!Obs.empty_snapshot} when
                               [base.observe] is off) *)
}

val run : ?config:config -> guests:int -> unit -> report
(** Raises [Invalid_argument] when [guests < 1]. *)

val sweep :
  ?config:config -> ?max_guests:int -> ?rates:float list -> unit ->
  report list
(** For each rate, 1..max_guests (default 4) — rate-major order;
    raises [Invalid_argument] when [max_guests < 1]. The
    cells are independent and run on OCaml domains via
    {!Parallel_sweep}; results are identical to the serial sweep. *)
