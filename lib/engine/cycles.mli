(** Cycle-count arithmetic for the simulated 660 MHz Cortex-A9.

    All simulator time is expressed in CPU clock cycles (an [int]; at
    660 MHz a 63-bit cycle counter lasts ~443 years of simulated time).
    This module converts between cycles and wall-clock units at the
    frequency the paper's board runs at. *)

type t = int
(** A duration or timestamp in CPU cycles. *)

val cpu_hz : int
(** Core clock of the evaluation platform: 660 MHz (paper §V). *)

val of_us : float -> t
(** [of_us us] is the closest cycle count to [us] microseconds. *)

val of_ms : float -> t
(** [of_ms ms] is the closest cycle count to [ms] milliseconds. *)

val to_ns : t -> float
(** [to_ns c] converts cycles to nanoseconds. *)

val to_us : t -> float
(** [to_us c] converts cycles to microseconds — the unit of Table III. *)

val to_ms : t -> float
(** [to_ms c] converts cycles to milliseconds. *)
