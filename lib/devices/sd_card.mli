(** SD card block device.

    The paper's platform has a 4 GB SD card reached through the
    microkernel's supervision. Modelled as a sparse block store with a
    per-block transfer latency; the kernel charges that latency when
    servicing the SD hypercalls. *)

type t

val block_size : int
(** 512 bytes. *)

val create : ?blocks:int -> unit -> t
(** Default capacity 8 Mi blocks (4 GB), allocated sparsely. *)

val read_block : t -> int -> Bytes.t
(** Returns a fresh 512-byte buffer.
    @raise Invalid_argument on an out-of-range block index. *)

val write_block : t -> int -> Bytes.t -> unit
(** @raise Invalid_argument on bad index or buffer size. *)

val transfer_cycles : Cycles.t
(** Cost of moving one block over the SDIO interface (~25 MB/s). *)
