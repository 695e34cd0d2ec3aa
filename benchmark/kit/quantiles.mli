(** Order statistics used by the benchmark and the compare tool. *)

val nearest_rank : int array -> float -> int
(** [nearest_rank sorted q] is the nearest-rank [q]-quantile of an
    ascending array: the element at rank [ceil (q * n)], clamped to
    [1 .. n]. @raise Invalid_argument on an empty array. *)

val median : float list -> float
(** Middle value, or the mean of the two middle values (Python's
    [statistics.median]). @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] by the exclusive method of Python's
    [statistics.quantiles data ~n:4]; a single value is its own
    quartiles. @raise Invalid_argument on an empty list. *)

val iqr_share : float list -> float
(** [(q3 - q1) / median]; 0 when the median is 0. *)
