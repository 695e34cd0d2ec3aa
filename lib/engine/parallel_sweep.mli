(** Domain-parallel execution of independent jobs — the one
    work-handout loop of the code base.

    The bench harness runs many self-contained configurations (Table
    III's native + 1..4 guests, the ASID ablation, the quantum sweep),
    and an [Smp] epoch runs every pCPU node up to the next barrier.
    The jobs share nothing, so they can run on separate OCaml domains;
    results are always returned in input order, making the output
    deterministic and independent of the domain count. *)

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
    participates). With an effective budget of 1 this is exactly
    [Array.iter f items] — inline, no domains are spawned. If any job
    raises, the exception of the lowest-indexed failing job is
    re-raised with its backtrace after all domains have joined. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!iter} collecting results in input order; with an effective
    budget of 1 this is exactly [List.map f items]. *)

val run : ?domains:int -> (unit -> 'a) list -> 'a list
(** [run thunks] = [map (fun f -> f ()) thunks] — for heterogeneous
    sweeps expressed as closures. *)
