(** Square QAM modulation / demodulation (orders 4, 16, 64).

    Functional model of the paper's QAM IP cores. Gray-coded square
    constellations normalised to unit average energy; hard-decision
    demodulation by nearest constellation point. *)

type order = Qam4 | Qam16 | Qam64

val bits_per_symbol : order -> int
(** 2, 4 or 6. *)

val order_of_int : int -> order
(** From the constellation size (4/16/64).
    @raise Invalid_argument otherwise. *)

val modulate : order -> bits:int array -> float array * float array
(** Map a bit array (values 0/1, length a multiple of
    [bits_per_symbol]) to I/Q sample arrays.
    @raise Invalid_argument on bad length or non-binary values. *)

val demodulate : order -> i:float array -> q:float array -> int array
(** Nearest-point hard decision back to bits.
    @raise Invalid_argument if I/Q lengths differ. *)
