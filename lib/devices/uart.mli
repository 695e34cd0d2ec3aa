(** UART model.

    One of the two shared I/O devices the paravirtualized guest reaches
    through a supervised hypercall (paper §V-A). Output is captured in
    a per-device buffer. Each byte costs a device access' worth of time,
    charged by the platform MMIO layer. *)

type t

val create : unit -> t

val write_byte : t -> char -> unit

val write_string : t -> string -> unit

val contents : t -> string
(** Everything written so far. *)
