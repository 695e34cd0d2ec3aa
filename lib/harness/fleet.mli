(** The experiment kit: one way to boot a complex, and the per-node
    read-outs the multi-VM experiments share.

    Every experiment that runs guests (Scenario, Chaos, Slo, the
    density and partition cells, Soak, the Ablations and the trace
    demo) boots through
    {!boot}, so they all drive the kernel through {!Smp} — at one pCPU
    that is pure delegation to the single kernel. *)

val boot :
  ?config:Kernel.config -> ?observe:bool -> ?fault_seed:int ->
  ?fault_rate:float -> pcpus:int -> unit -> Smp.t
(** [Smp.create] over one board per pCPU, built as
    [Zynq.create ~observe ~fault_seed:(fault_seed + cpu) ~fault_rate
    ~cpu] ([fault_seed] defaults to 0, the board default; the other
    options keep the {!Zynq.create} defaults). *)

(** {2 Read-outs} *)

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
