(** Footprint-based execution cost engine.

    The simulation does not interpret an ISA. Instead, every code path
    (kernel entry stub, hypercall handler, guest OS service, workload
    inner loop) is described by a {e footprint}: the virtual range of
    its code, the data ranges it touches, and its pipeline cycle
    count. A call site interns the footprints it runs as a pinned
    trace ({!pin}) once, and {!run_pinned} pushes them through the MMU,
    TLB, and cache hierarchy at the current translation context — so
    the same path is fast when warm and slow when another VM evicted
    it, which is the mechanism behind the paper's Table III trends.

    A footprint is charged one of two ways. The reference walk
    translates once per page and charges the hierarchy once per line;
    it is the oracle, and what {!run_pinned} does when the fast path is
    off ([MININOVA_FASTPATH=0], or {!Fastpath.set_enabled}). The fast
    path compiles a pinned trace once per translation context into a
    flat program of page runs ({!Fastpath.prog}) whose partial-warm
    replay bulk-replays the L1-resident runs and walks only the cold
    ones, translating through a per-CPU micro-TLB. It is {e exact}:
    simulated cycles and every hit/miss counter are bit-identical to
    the reference walk, as the equivalence property test in
    [test/test_fastpath.ml] pins. *)

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

val pin : t array -> Fastpath.pinned
(** Intern a fixed footprint sequence as a pinned control-path trace:
    call sites that execute the same footprints every time (kernel
    entry stubs, dispatch, world-switch pieces, guest OS services)
    build the handle once and {!run_pinned} it. The sequence compiles
    into one flat program per translation context (up to 8 contexts
    cached per handle), epoch-validated on every replay. *)

val pin1 : t -> Fastpath.pinned
(** [pin [| t |]]. *)

val run_pinned : Zynq.t -> priv:bool -> Fastpath.pinned -> unit
(** Execute a pinned sequence at the current translation context.
    Raises {!Mmu.Fault} if any address fails to translate.
    Bit-identical — in simulated cycles, cache/TLB statistics, and
    every state transition — to the reference walk of each footprint
    in order, charging [base_cycles] plus one issue cycle per code
    word after its accesses (with the fast path disabled, it {e is}
    that sequence of walks). The only freedom taken is that the pipeline
    cycle charges of the sequence are applied after its memory
    accesses rather than interleaved, which no observer can see:
    events only run at interrupt-routing points, never inside a
    footprint sequence. *)
