(** Ablation experiments for the design choices DESIGN.md calls out.

    Each function builds a fresh simulated board, so results are
    independent and deterministic. *)

(** E4 — reconfiguration latency per bitstream (paper §IV/V, the
    size↔delay relation inherited from the authors' prior work). *)
type reconfig_row = {
  task : string;
  bitstream_kb : int;
  reconfig_ms : float;     (** measured PCAP download latency *)
}

val reconfig_table : unit -> reconfig_row list

(** A1 — AXI HP vs ACP (paper §IV-A rejects ACP): same DMA payload,
    then the same CPU working-set sweep; ACP is a bit faster on the
    wire but evicts the CPU's L2 lines. *)
type axi_result = {
  payload_kb : int;
  hp_dma_us : float;
  acp_dma_us : float;
  cpu_after_hp_us : float;   (** CPU sweep latency after HP DMA *)
  cpu_after_acp_us : float;  (** same sweep after ACP DMA (polluted L2) *)
}

val axi_ablation : unit -> axi_result
(** A 64 KB payload. *)

(** A2 — lazy vs active VFP switching (paper Table I): mean VM-switch
    cost in a two-VM ping-pong where both guests use the VFP. *)
type vfp_result = {
  lazy_switch_us : float;
  active_switch_us : float;
  lazy_vfp_switches : int;   (** actual bank switches under lazy *)
  active_vfp_switches : int;
}

val vfp_ablation : ?switches:int -> unit -> vfp_result
(** The two policies run on separate domains (see {!Parallel_sweep}). *)

(** A3 — hypercall vs trap-and-emulate for a sensitive operation
    (paper §II-A): mean guest-observed latency of a privileged
    register read through each path. *)
type trap_result = {
  hypercall_us : float;
  trap_us : float;
}

val trap_vs_hypercall : ?iterations:int -> unit -> trap_result

(** A4 — ASID-tagged TLB vs flush-on-switch (paper §III-C): the
    Table III scenario with 2 guests (a 2 ms quantum so switches are
    frequent), plus a microbenchmark isolating what the paper's design
    avoids — the cost of the first working-set pass after a VM switch
    when the TLB was flushed. *)
type asid_result = {
  asid : Scenario.overheads;
  flush_all : Scenario.overheads;
  first_chunk_asid_us : float;
  (** post-switch guest chunk latency with ASID-tagged entries *)

  first_chunk_flush_us : float;
  (** same chunk when each switch flushes the TLB *)
}

val asid_ablation : config:Scenario.config -> unit -> asid_result
(** The four independent measurements (two scenario runs, two
    microbenchmarks) run on domains via {!Parallel_sweep}. *)

(** A5 — time-slice sweep around the paper's 33 ms: quanta of 1, 10,
    33 and 100 ms, one domain per quantum (results in that order). *)
val quantum_sweep :
  config:Scenario.config -> unit -> (float * Scenario.overheads) list
