(** Shared command-line vocabulary and the argv engine of the
    [mininova] front end.

    A {!spec} is the single source of truth for a flag: names (short
    and long), metavariable, help text, default and parser. The parser
    is the flag boundary: a value out of the flag's range (a
    non-finite number, a probability outside [0, 1], a quantum <= 0,
    an unreadable file) is an [Error] there, before anything runs.
    Experiments ({!Experiment}) declare the specs they read, overriding
    the default where theirs differs; [Experiment.command] scans argv
    with {!parse} against the entries of the named experiments only. *)

type 'a spec = {
  names : string list;  (** without dashes; 1-char names render as [-x] *)
  docv : string;        (** metavariable for help, e.g. ["N"] *)
  doc : string;         (** one-line help *)
  default : 'a;
  parse : string -> ('a, string) result;
}

type flag = {
  f_names : string list;
  f_doc : string;
}

val int_in : int -> int -> string -> (int, string) result
(** [int_in lo hi s]: parse an integer in [\[lo, hi\]]. *)

val int : ?docv:string -> ?min:int -> ?max:int ->
  string list -> string -> int -> int spec
(** [int names doc default]: an integer flag (metavariable [N] unless
    given), within [min] and [max] when given. *)

val some : 'a spec -> 'a option spec
(** The same flag, defaulting to [None] ("not given"). *)

val file : string list -> string -> string option spec
(** A [FILE]-valued flag with the given names and help, unset by
    default. *)

(** {2 The shared vocabulary} *)

val requests : int spec
(** [-r]/[--requests]: T_hw iterations, at least 1. *)

val warmup : int spec
(** [--warmup]: discarded leading samples, at least 0. *)

val quantum : float spec
(** [-q]/[--quantum]: guest slice, ms (finite, > 0). *)

val seed : int spec
(** [--seed]: scenario RNG seed. *)

val guests : int spec
(** [-g]/[--guests]: parallel guest VMs. *)

val pcpus : int spec
(** [--pcpus N]: simulated pCPU count, 1 to {!Smp.max_pcpus}. N > 1
    boots an [Smp] complex — per-CPU kernels run in parallel on OCaml
    domains, coupled at deterministic epoch barriers. *)

val fault_rate : float spec
(** [--fault-rate]: PL fault probability (in [0, 1]). *)

val fault_seed : int spec
(** [--fault-seed]: fault plane RNG seed. *)

val ops : int spec
(** [--ops N]: soak operation budget, > 0; accepts k/m suffixes
    ([200k], [1m]). *)

val assert_ : flag
(** [--assert]: a failed experiment claim exits 1. *)

val help : flag

val observe : flag
(** [--obs]: enable the observability plane. *)

val check : flag
(** [--check]: evaluate kernel invariants at every boundary. *)

val no_check : flag
(** [--no-check]: disable invariant evaluation during the soak. *)

(** {2 The argv engine} *)

type entry

val value_ref : 'a spec -> 'a ref * entry
(** An entry storing the parsed value in the returned ref (initially
    the spec's default). *)

val flag_ref : flag -> bool ref * entry
(** An entry setting the returned ref (initially [false]). *)

val parse : entry list -> string list -> (string list, string) result
(** Scan argv (without the program name). Recognizes [--name value],
    [--name=value] and [-x value]; anything not starting with [-] is
    collected as a positional and returned in order. When several
    entries share a name, every one receives the value. [Error] carries
    a human-readable message (unknown flag, missing or bad value). *)

val pp_usage : Format.formatter -> entry list -> unit
(** One aligned [--name DOCV  doc] line per distinct entry — the help
    text [mininova --help] prints. *)
