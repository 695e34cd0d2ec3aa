(** Test-signal generation.

    A deterministic PCM source feeding the workloads and the
    hardware-task data sections, and the bit error rate of a
    demodulated stream. *)

val speech_like : Rng.t -> int -> int array
(** Crude voiced-speech-like signal (pitch pulses through a decaying
    resonator plus noise) — gives the GSM/ADPCM workloads realistic
    correlation structure. *)

val ber : int array -> int array -> float
(** Bit error rate between two equal-length 0/1 arrays.
    @raise Invalid_argument on length mismatch. *)
