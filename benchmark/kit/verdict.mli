(** The rule that turns repeated parent/change runs of one metric on
    one workload into a verdict. *)

type better = Lower | Higher

type verdict =
  | Improved    (** wins >= 9/10 of at least 10 pairs and the medians
                    differ by more than the parent's IQR *)
  | Regressed   (** median worse than the parent's by more than the
                    bound *)
  | Unresolved  (** run-to-run spread wider than the bound, and not
                    every change run beats every parent run *)
  | Unchanged   (** within the bound *)

val verdict_name : verdict -> string

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  k : int;
}

type comparison = {
  parent : summary;
  change : summary;
  pairs : int;
  wins : int;          (** pairs the change wins; ties count for neither *)
  verdict : verdict;
}

val compare_runs :
  better:better -> bound:float -> parent:float list -> change:float list ->
  pairs:(float * float) list -> comparison
(** [pairs] are (parent, change) values of runs made on the same seed.
    [bound] is a share of the parent median. *)
