(** AXI interconnect cost models (paper §IV-A).

    Three PS↔PL paths exist on the Zynq; the paper uses GP for register
    access and HP for task data, and explicitly rejects ACP because its
    cache-coherent traffic interferes with the CPU. All three are
    modelled so that choice is reproducible as an ablation (DESIGN.md
    A1). *)

val gp_access_cycles : int
(** Single-beat register access through M_AXI_GP (CPU-clock cycles). *)

val burst_setup_cycles : int
(** Fixed per-burst setup cost shared by the HP and ACP paths —
    exposed for the streaming model, which charges setup per direction
    while the per-beat cost is absorbed into the pipeline overlap. *)

val hp_transfer_cycles : int -> int
(** [hp_transfer_cycles bytes]: burst DMA through AXI_HP straight to
    DDR — 64-bit beats at fabric speed plus setup. *)

val acp_transfer_cycles : int -> l2:Cache.t -> Addr.t -> int
(** [acp_transfer_cycles bytes ~l2 base]: same payload through the
    Accelerator Coherency Port. Slightly faster per beat (it can hit
    in L2) but allocates every touched line into L2, evicting CPU
    working set — the interference the paper measured. The lines
    [base..base+bytes) are marked resident in [l2] as a side effect. *)
