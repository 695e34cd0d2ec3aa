(** The paper's evaluation scenario (Fig 8).

    Four PRRs in the fabric (two FFT-capable); a task set of FFT-256 …
    FFT-8192 and QAM-4/16/64 bitstreams; each guest runs a virtualized
    µC/OS-II with heavy software workloads (GSM-LPC encoding, IMA
    ADPCM compression, a cache-churning memory task) plus the special
    T_hw task that repeatedly picks a random hardware task and issues
    the hardware-task hypercall. The same OS image runs natively as
    the baseline, with the Hardware Task Manager called as a plain
    function.

    Timings are collected after a warm-up fraction and reported in µs
    to match Table III. *)

type config = {
  seed : int;
  requests_per_guest : int;  (** T_hw iterations before the guest stops *)
  warmup_requests : int;     (** ignored leading samples *)
  quantum_ms : float;        (** guest time slice (paper: 33 ms) *)
  tlb_policy : [ `Asid | `Flush_all ];
  vfp_policy : [ `Lazy | `Active ];
  job_fraction : int;        (** run a real DMA job every n-th request *)
  observe : bool;            (** enable the board's {!Obs} plane
                                 (default false; simulated cycles are
                                 identical either way) *)
  pcpus : int;               (** simulated pCPUs of the {!Smp}
                                 complex every run boots through
                                 {!Fleet.boot} (default 1 — pure
                                 delegation to the single kernel).
                                 Guests are spread round-robin and
                                 per-path means merge every node's
                                 probe. Warm-up discarding runs only at
                                 1: it resets probe state from guest
                                 context, unsafe across domains *)
}

val default_config : config

type overheads = {
  entry_us : float;
  exit_us : float;
  plirq_us : float;
  exec_us : float;
  total_us : float;       (** entry + execution + exit *)
  samples : int;          (** manager invocations measured *)
  reconfigs : int;        (** PCAP downloads *)
  reclaims : int;         (** PRR client switches *)
  jobs : int;             (** completed DMA jobs *)
  hwmmu_violations : int;
  sim_ms : float;         (** simulated time consumed *)
  sim_cycles : int;       (** exact simulated cycles — deterministic and
                              host-independent, the quantity the bench
                              baseline gate compares *)
  metrics : Obs.snapshot; (** post-warm-up observability snapshot
                              ({!Obs.empty_snapshot}-shaped when
                              [observe] was off) *)
}

val standard_task_set : Task_kind.t list
(** FFT-{256,512,1024,2048,4096,8192} and QAM-{4,16,64}. *)

val streamable_task_set : Task_kind.t list
(** FFT-{256,512,1024} and QAM-{4,16,64}: the kinds {!verified_job}
    streams in one DMA job (the chaos and SLO guests' set). *)

val verified_job : Ucos.t -> Rng.t -> Hw_task_api.t -> Task_kind.t -> bool
(** Run one real DMA job through an acquired task handle and verify
    the result against the software reference (FFT vs {!Fft.transform},
    QAM against demodulation). Fault-tolerant: an [Error _] from the
    job helpers or a verification mismatch returns [false] rather than
    raising — the behaviour the chaos and SLO guests need. Kinds the
    whole-job helpers cannot stream (FFT > 1024 points, FIR) return
    [false]. *)

val run_native : ?config:config -> unit -> overheads
(** Baseline row of Table III. *)

val run_virtualized : ?config:config -> guests:int -> unit -> overheads
(** One measured configuration with [guests] parallel VMs (1–4 in the
    paper). *)
