(** Deterministic multi-pCPU orchestration.

    Runs one complete per-CPU machine ({!Zynq.t} + {!Kernel.t}) per
    simulated pCPU and couples them only at fixed-cycle epoch
    barriers: within an epoch every node simulates independently (in
    parallel across OCaml domains — the nodes share nothing), posting
    cross-CPU work (message IPIs, ASID-steal TLB shootdowns) into a
    private outbox; at the barrier a single domain drains every outbox
    in pCPU order, runs idle-balance migration, and charges the
    MESI-lite coherence model ({!Coherence}). A node's epoch depends
    only on its own state plus the ordered barrier inputs, so a given
    [--pcpus N] run is bit-identical for any host core count and any
    [workers] value.

    [pcpus = 1] is pure delegation to the single kernel — no hooks,
    no global id space, {!run} is [Kernel.run] — and therefore
    bit-identical to driving {!Kernel} directly. *)

type t

val max_pcpus : int (** 8: the GIC addresses at most 8 CPU interfaces. *)

val create :
  ?config:Kernel.config -> ?epoch:Cycles.t -> ?workers:int ->
  pcpus:int -> mk_zynq:(int -> Zynq.t) -> unit -> t
(** Boot [pcpus] nodes; [mk_zynq cpu] supplies each board (pass [cpu]
    through to [Zynq.create ~cpu] so observability cells stay keyed).
    [epoch] is the barrier quantum in cycles (default 1 ms); smaller
    epochs tighten cross-CPU latency, larger ones cut barrier
    overhead — either way results are deterministic. Epochs run
    through {!Parallel_sweep.iter}: [workers] caps how many domains
    (the caller plus persistent pool workers) an epoch uses (default:
    {!Parallel_sweep.default_domains}, read once here). A budget of 1,
    an epoch run while the pool is busy (an [Smp.run] inside a sweep
    job), or an epoch that starts with live guests on at most one node
    runs the nodes inline on the calling domain. None of this ever
    affects simulation results.
    @raise Invalid_argument unless [1 <= pcpus <= max_pcpus]. *)

val pcpus : t -> int

val kernel : t -> int -> Kernel.t
(** The pCPU's kernel. Direct (read-mostly) access for harnesses and
    checkers; do not call between [run] epochs from another domain. *)

val zynq : t -> int -> Zynq.t

val create_vm :
  t -> name:string -> ?cpu:int -> ?priority:int -> ?uses_vfp:bool ->
  (Kernel.guest_env -> unit) -> Pd.t
(** Create a guest on pCPU [cpu] (default: round-robin placement).
    PD ids are unique across the whole complex. *)

val vm_cpu : t -> int -> int option
(** Which pCPU currently hosts live PD [id] ([None] if dead). *)

val kill_vm : t -> int -> reason:string -> bool
(** Kill wherever it lives; same contract as {!Kernel.kill_vm}. *)

val register_hw_task : t -> Task_kind.t -> Bitstream.id
(** Register the bitstream with every node's manager (each pCPU
    cluster has its own PL partition); ids agree across nodes. *)

val try_register_hw_task : t -> Task_kind.t -> (Bitstream.id, string) result
(** Non-raising {!register_hw_task}: a refusal (no hosting PRR, store
    full) touches no node's state. *)

val destroy_hw_task : t -> Bitstream.id -> (unit, string) result
(** Destroy the task on every node, recycling its store range —
    all-or-nothing: refused if any node still has it allocated. *)

val run : t -> until:Cycles.t -> unit
(** Simulate until every node's clock reaches [until] or all guests
    are dead. Cross-CPU delivery happens at epoch barriers only. An
    epoch goes to the host pool only when two or more nodes start it
    with live guests; otherwise the idle nodes have nothing to run in
    parallel with, and the whole epoch runs on the calling domain. *)

val run_for : t -> Cycles.t -> unit

val now : t -> Cycles.t
(** Max node clock (nodes agree at barriers up to charge overshoot). *)

val alive_guests : t -> int
val crashes : t -> int
val hypercalls : t -> int

val directory : t -> (int * int) list
(** Live [(pd id, cpu)] pairs, sorted — the placement directory the
    per-CPU invariant checkers audit against node-local state. *)

val outboxes_empty : t -> bool
(** All cross-CPU outboxes drained — true at every barrier boundary
    (IPI-conservation invariant #10). *)

val set_barrier_hook : t -> (unit -> unit) option -> unit
(** Invoked after every completed barrier (single-domain context) —
    the SMP invariant plane's attachment point. *)

type stats = {
  s_ipis_posted : int;        (** message + shootdown IPIs posted *)
  s_ipis_delivered : int;
  s_ipis_dropped : int;       (** receiver died / inbox full *)
  s_shootdowns_posted : int;
  s_shootdowns_completed : int;  (** = posted * (pcpus - 1) *)
  s_migrations : int;         (** idle-balance steals *)
  s_coherence_lines : int;
  s_coherence_cycles : int;
  s_contention_cycles : int;
}

val stats : t -> stats
