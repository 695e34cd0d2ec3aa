(** The experiment registry: every experiment that produces simulated
    results, defined once.

    A record names the experiment (the bench section and the mininova
    subcommand are the same word) and defines it: the {!Cli_args}
    specs it reads, its cells and runner, one JSON document (the
    report) and its claims — the properties CI asserts. Both front
    ends are loops over {!registry}: they parse argv with
    {!Cli_args.parse} against the entries {!instantiate} returns, run,
    and print the {!result}'s document and claims. *)

type claim = { claim : string; holds : bool }

type result = {
  json : Json_out.t;                 (** the JSON document *)
  claims : claim list;               (** always printed; [--assert]
                                         makes a failure exit 1 *)
  cycles : (string * int) list;      (** exact simulated cycles per cell
                                         where a gate reads them: table3's
                                         feed the bench cycle baseline *)
}

(** How a definition declares its flags: each call registers one argv
    entry and returns a reader for the parsed value (the spec's
    default when the flag is absent). *)
type args = {
  value : 'a. 'a Cli_args.spec -> unit -> 'a;
  flag : Cli_args.flag -> unit -> bool;
}

type t = {
  name : string;
  title : string;
  define : args -> unit -> result;
}

val registry : t list
(** table3 fig9 report reconfig axi vfp trapvshyper asid quantum chaos
    soak slo density partition scenario trace. table3, fig9 and
    scenario read one per-process cache of Table III cells (native or
    N guests under one config), so each cell runs at most once. *)

val find : string -> t option

val instantiate : t -> Cli_args.entry list * (unit -> result)
(** The experiment's argv entries (fresh state) and its runner, which
    reads whatever {!Cli_args.parse} stored through those entries. *)

val all_hold : result -> bool
val pp_claims : Format.formatter -> result -> unit
(** One [claim ok: …] / [claim FAIL: …] line per claim. *)

val claims_json : result -> Json_out.t
