(** Test-signal generation.

    Deterministic PCM and complex-baseband sources feeding the
    workloads and the hardware-task data sections. *)

val sine : amplitude:float -> freq:float -> rate:float -> int -> int array
(** [sine ~amplitude ~freq ~rate n] is [n] 16-bit samples of a sine at
    [freq] Hz sampled at [rate] Hz (amplitude clamped to 16-bit). *)

val noise : Rng.t -> amplitude:int -> int -> int array
(** Uniform noise in [±amplitude]. *)

val speech_like : Rng.t -> int -> int array
(** Crude voiced-speech-like signal (pitch pulses through a decaying
    resonator plus noise) — gives the GSM/ADPCM workloads realistic
    correlation structure. *)

val to_floats : int array -> float array

val ber : int array -> int array -> float
(** Bit error rate between two equal-length 0/1 arrays.
    @raise Invalid_argument on length mismatch. *)
