(** The experiment registry: every experiment that produces simulated
    results, defined once, and the argv step of the [mininova] front
    end.

    A record names the experiment (the mininova subcommand and the
    bench section are the same word) and defines it: the {!Cli_args}
    specs it reads, its cells and runner, one JSON document (the
    report) and its claims — the properties CI asserts. {!command}
    turns an argv into the named experiments' runners; the front end
    runs them and prints each {!result}'s document and claims. *)

type claim = { claim : string; holds : bool }

type result = {
  json : Json_out.t;                 (** the JSON document *)
  claims : claim list;               (** always printed; [--assert]
                                         makes a failure exit 1 *)
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

val all_hold : result -> bool
val pp_claims : Format.formatter -> result -> unit
(** One [claim ok: …] / [claim FAIL: …] line per claim. *)

val claims_json : result -> Json_out.t

(** {2 The argv step} *)

type command = {
  all : bool;                     (** [all]: print one bench document *)
  runs : (t * (unit -> result)) list;
  entries : Cli_args.entry list;  (** every flag the command reads *)
  assert_ : bool;
  help : bool;
}

val command : t list -> string list -> (command, string) Stdlib.result
(** [command sections argv]: [NAME FLAGS...] runs one of [sections],
    [all [NAME...] FLAGS...] the named ones (every one when none is,
    as for an empty [argv]).
    The flags are the named experiments' entries, [--assert] and
    [--help].
    [Error] names an unknown experiment, a flag none of them reads, a
    bad value or a positional. *)
