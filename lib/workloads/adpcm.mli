(** IMA ADPCM codec.

    The paper's guests run "Adaptive differential pulse-code modulation
    (ADPCM) compression" as a heavy software workload; this is a real
    IMA ADPCM implementation (4 bits per 16-bit sample) so the workload
    both burns representative cycles and is verifiable. *)

type state = { mutable predictor : int; mutable index : int }
(** Codec state carried across samples (and across frames). *)

val init_state : unit -> state

val encode_sample : state -> int -> int
(** [encode_sample st s] encodes one 16-bit signed sample into a 4-bit
    code, updating the state. *)

val decode_sample : state -> int -> int
(** Decode one 4-bit code back to a 16-bit signed sample. *)

val encode : int array -> int array
(** Encode a whole buffer of 16-bit samples to 4-bit codes, starting
    from a fresh state. *)

val decode : int array -> int array
(** Decode a whole buffer of codes, starting from a fresh state. *)

val roundtrip_error : int array -> int
(** [roundtrip_error s] is the largest per-sample error between [s] and
    [decode (encode s)], fused into a single pass with no intermediate
    buffers — the hot verification step of the simulated DSP guests. *)
