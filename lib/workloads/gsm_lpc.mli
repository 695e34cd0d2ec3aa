(** Short-term LPC analysis in the style of GSM 06.10.

    The paper's other heavy guest workload is "GSM encoding". This
    module implements the compute-intensive front half of the GSM
    full-rate codec: per 160-sample frame, preemphasis, autocorrelation,
    Schur recursion to reflection coefficients, and quantisation to
    log-area ratios. That is where the codec's cycles go, which is what
    the workload needs to reproduce. *)

val frame_size : int
(** 160 samples (20 ms at 8 kHz). *)

val analyze : int array -> int array
(** [analyze frame] runs LPC analysis over one [frame_size]-sample
    16-bit PCM frame and returns the 8 quantised log-area ratios.
    @raise Invalid_argument on a wrong-size frame. *)

val reflection_coefficients : int array -> float array
(** The 8 intermediate reflection coefficients (each in [-1, 1]),
    exposed for tests. *)
