(** Footprint-based execution cost engine.

    The simulation does not interpret an ISA. Instead, every code path
    (kernel entry stub, hypercall handler, guest OS service, workload
    inner loop) is described by a {e footprint}: the virtual range of
    its code, the data ranges it touches, and its pipeline cycle
    count. {!run} pushes the footprint through the MMU, TLB, and cache
    hierarchy at the current translation context — so the same path is
    fast when warm and slow when another VM evicted it, which is the
    mechanism behind the paper's Table III trends.

    {!run} and {!touch} are accelerated by a per-CPU fast path
    ({!Fastpath}): a micro-TLB over page translations, batched
    per-page line runs ({!Hierarchy.access_line_run}), and compiled
    footprint programs whose partial-warm replay bulk-replays the
    L1-resident runs and walks only the cold ones.
    All of it is {e exact} — simulated cycles and every hit/miss
    counter are bit-identical to the scalar reference walk, which is
    kept available (set [MININOVA_FASTPATH=0], or
    {!Fastpath.set_enabled}) and pinned by the equivalence property
    test in [test/test_fastpath.ml]. *)

type range = Fastpath.range = { base : Addr.t; len : int }
(** A virtual byte range. *)

type t = Fastpath.fp = {
  label : string;
  code : range;          (** instructions, fetched line by line *)
  reads : range list;    (** data read, touched line by line *)
  writes : range list;   (** data written, touched line by line *)
  base_cycles : int;     (** non-memory pipeline cycles *)
}

val make :
  ?reads:range list -> ?writes:range list -> ?base_cycles:int ->
  label:string -> code_base:Addr.t -> code_bytes:int -> unit -> t
(** Build a footprint. Instruction issue cost ([code_bytes/4] cycles,
    one per instruction) is charged automatically on top of
    [base_cycles]. *)

val run : Zynq.t -> priv:bool -> t -> int
(** Execute the footprint at the current TTBR/ASID/DACR: charges every
    fetch and data line through the memory system and [base_cycles] on
    the clock. Returns the total cycles consumed. Raises {!Mmu.Fault}
    if any address fails to translate. *)

val touch : Zynq.t -> priv:bool -> Hierarchy.kind -> range -> unit
(** Charge one access per cache line of a single range (used for
    fine-grained workload modelling). Raises {!Mmu.Fault}. *)

val pin : t array -> Fastpath.pinned
(** Intern a fixed footprint sequence as a pinned control-path trace:
    call sites that execute the same footprints every time (kernel
    entry stubs, dispatch, world-switch pieces, guest OS services)
    build the handle once and {!run_pinned} it, skipping the per-call
    footprint allocation, key hash and program-table lookup of {!run}.
    The sequence compiles into one flat program per translation
    context (up to 8 contexts cached per handle),
    epoch-validated on every replay. *)

val pin1 : t -> Fastpath.pinned
(** [pin [| t |]]. *)

val run_pinned : Zynq.t -> priv:bool -> Fastpath.pinned -> unit
(** Execute a pinned sequence at the current translation context.
    Bit-identical — in simulated cycles, cache/TLB statistics, and
    every state transition — to running each footprint through {!run}
    (and, with the fast path disabled, it {e is} the sequence of
    reference walks). The only freedom taken is that the pipeline
    cycle charges of the sequence are applied after its memory
    accesses rather than interleaved, which no observer can see:
    events only run at interrupt-routing points, never inside a
    footprint sequence. *)

val estimate_warm_cycles : t -> int
(** Lower bound: cost with every access an L1 hit (for tests and for
    sanity-checking calibration). *)
