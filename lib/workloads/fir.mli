(** FIR filtering — functional model of the FIR accelerator family.

    Windowed-sinc designs (Hamming window), the workhorse filters of
    the digital-communication front-ends the paper's platform targets.
    Coefficients are derived deterministically from (taps, response),
    so the hardware task needs only those two parameters. *)

type response =
  | Lowpass of float   (** normalised cutoff, 0 < fc < 0.5 *)
  | Highpass of float

val design : taps:int -> response -> float array
(** Windowed-sinc coefficients; [taps] must be odd and ≥ 5 (a linear
    phase type-I filter). @raise Invalid_argument otherwise. *)

val apply : float array -> float array -> float array
(** [apply h x] convolves (same length as [x], zero history before the
    first sample). *)
