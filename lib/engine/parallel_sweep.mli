(** Domain-parallel execution of independent jobs — the one
    work-handout loop of the code base.

    The bench harness runs many self-contained configurations (Table
    III's native + 1..4 guests, the ASID ablation, the quantum sweep),
    and an [Smp] epoch runs every pCPU node up to the next barrier.
    The jobs share nothing, so they can run on separate OCaml domains;
    results are always returned in input order, making the output
    deterministic and independent of the domain count.

    The domains are one per-process pool of persistent workers. They
    are spawned lazily, the first time a call needs them, and the pool
    only grows, to the largest [budget - 1] asked for: a process that
    never asks for more than one domain spawns none. Between calls
    the workers spin briefly and then park on a condition variable,
    so idle workers burn no CPU and do not delay process exit. A call
    owns the whole pool while it runs; a call made meanwhile — nested
    inside a job, or from another domain at the same time — runs
    inline on its own calling domain, which changes only host time. *)

val domains_of_env : string option -> int
(** The domain-budget rule for a [MININOVA_DOMAINS] value: unset means
    [Domain.recommended_domain_count ()]; otherwise the trimmed value
    if it is a positive integer, and 1 (serial) for anything else. *)

val default_domains : unit -> int
(** [domains_of_env] applied to the [MININOVA_DOMAINS] environment
    variable — the only place the variable is read. The budget used
    when [?domains] is omitted. *)

val iter : ?domains:int -> ('a -> unit) -> 'a array -> unit
(** [iter f items] applies [f] to every item, using up to [domains]
    domains (capped by the number of items; the calling domain
    participates, the rest are pool workers). With an effective budget
    of 1, or while the pool is busy, the items run in index order on
    the calling domain and no job is posted to the pool. Either way,
    if any job raises, the exception of the lowest-indexed failing job
    is re-raised with its backtrace after every job has finished. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!iter} collecting results in input order; with an effective
    budget of 1 the items run in list order on the calling domain.
    A raising job fails the whole call as in {!iter}. *)

val run : ?domains:int -> (unit -> 'a) list -> 'a list
(** [run thunks] = [map (fun f -> f ()) thunks] — for heterogeneous
    sweeps expressed as closures. *)

val handouts : unit -> int
(** Jobs posted to the pool since the process started: one per call
    that did not run inline. An observation for tests and profiles;
    nothing reads it to decide anything. *)
