(** The experiment kit: one way to boot a complex, the standard guests
    the fleet experiments share, and their read-outs.

    Every experiment that runs guests (Scenario, Chaos, Slo, Density,
    Partition, Soak, the Ablations and the trace demo) boots through
    {!boot}, so they all drive the kernel through {!Smp} — at one pCPU
    that is pure delegation to the single kernel. *)

val boot :
  ?config:Kernel.config -> ?observe:bool -> ?fault_seed:int ->
  ?fault_rate:float -> pcpus:int -> unit -> Smp.t
(** [Smp.create] over one board per pCPU, built as
    [Zynq.create ~observe ~fault_seed:(fault_seed + cpu) ~fault_rate
    ~cpu] ([fault_seed] defaults to 0, the board default; the other
    options keep the {!Zynq.create} defaults). *)

(** {2 Guests} *)

type tally = {
  mutable sub : int;     (** jobs submitted *)
  mutable ok : int;
  mutable busy : int;    (** given up after {!busy_retries} busy answers *)
  mutable denied : int;  (** refused outright (static partitioning) *)
  mutable failed : int;
}
(** Per-VM job counts shared between the host and a guest closure. *)

val tally : unit -> tally
val sum : tally array -> tally
(** Field-wise total. *)

val busy_retries : int
(** How often a fleet guest retries [Hw_busy] before giving a job up. *)

val victim :
  seed:int -> jobs:int -> tally -> Bitstream.id array ->
  Kernel.guest_env -> unit
(** The fixed µC/OS victim: [jobs] real DMA + exec + completion-vIRQ
    jobs cycling over [tasks], with a seeded 1–2 tick think time. Its
    kernel-side [virq_turnaround] cell is the interference metric
    ({!victim_turnaround}). *)

val fleet_v1 :
  jobs:int -> offset:int -> tally -> Bitstream.id array ->
  Kernel.guest_env -> unit
(** The ABI v1 fleet guest: job [j] issues one [Hw_task_request] for
    [tasks.((offset + j) mod n)] per attempt, an [Hw_task_release] per
    win, and pauses after each job. [Hw_busy] is retried
    {!busy_retries} times; [Hw_denied] (static partitioning only) is
    terminal. Bare effect guest: its per-PD hypercall cells count
    exactly its ABI traffic. *)

(** {2 Read-outs} *)

type turnaround = { virqs : int; p50_us : float; p99_us : float }

val victim_turnaround : Smp.t -> pd:int -> turnaround
(** PD [pd]'s completion-vIRQ turnaround cell on pCPU 0 (all zero if
    it recorded nothing). Needs the board's observability plane. *)

type prr_util = {
  prr_id : int;          (** complex-global: [cpu * prr_count + slot] *)
  pinned : int option;   (** static owner (PD id), if any *)
  busy_cycles : int;
  util : float;          (** busy fraction of [sim_cycles] *)
}

val prr_utilisation : Smp.t -> sim_cycles:int -> prr_util list
(** Every PRR of every pCPU cluster (each has its own PL partition),
    in cpu then slot order. *)

val prr_util_json : pinned:bool -> prr_util list -> Json_out.t
(** [[{"prr", "pinned" (with [~pinned:true]), "busy_cycles", "util"}]]. *)

val sum_kernels : Smp.t -> (Kernel.t -> int) -> int
val sum_boards : Smp.t -> (Zynq.t -> int) -> int
(** Per-node totals. *)
