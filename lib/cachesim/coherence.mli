(** MESI-lite shared-L2 coherence cost model for SMP simulation.

    Charges deterministic cycle costs for cross-CPU cache traffic:
    cache-to-cache line transfers (dirty data produced on one pCPU and
    consumed on another) and shared-L2 port contention proportional to
    the per-epoch L2 miss pressure of the other pCPUs. All costs are
    integer functions of the inputs, independent of host scheduling. *)

type t

val create : cpus:int -> t

val transfer : t -> lines:int -> int
(** [transfer t ~lines] records a cross-CPU move of [lines] dirty
    lines and returns the cycle cost to charge the consumer. *)

val epoch : t -> l2_misses:int array -> int array
(** [epoch t ~l2_misses] takes the per-CPU L2 miss deltas of one
    barrier epoch (length must equal [cpus]) and returns the per-CPU
    contention penalty in cycles. *)

val lines_transferred : t -> int
val transfer_cycles : t -> int
val contention_cycles : t -> int
