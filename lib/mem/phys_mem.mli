(** Sparse simulated physical memory.

    Byte-addressable backing store for DDR and OCM, allocated lazily in
    4 KB frames so a 512 MB address space costs only what is touched.
    All multi-byte accessors are little-endian, matching the ARM
    configuration of the Zynq PS. Addresses span the 36-bit (LPAE)
    physical space; an access outside it raises [Invalid_argument]
    and materialises nothing.

    This module stores {e contents} only; timing (cache hits/misses,
    DRAM latency) is charged by the cache hierarchy, and access
    {e permission} is enforced by the MMU/hwMMU layers above. *)

type t

val create : unit -> t
(** Fresh memory, all bytes zero. *)

val read_u8 : t -> Addr.t -> int
val write_u8 : t -> Addr.t -> int -> unit

val read_word : t -> Addr.t -> int
(** The 32-bit word at [a] as an unsigned [int] in [0, 2{^32}): the
    unboxed form of {!read_u32}, for hot paths. A word straddling a
    frame boundary is assembled byte by byte. *)

val write_word : t -> Addr.t -> int -> unit
(** Store the low 32 bits of the value at [a]. *)

val read_words : t -> Addr.t -> int array -> int -> int -> unit
(** [read_words m a buf off n] stores the [n] consecutive words from
    [a] into [buf.(off)] .. [buf.(off + n - 1)], each as {!read_word}
    gives it. A run inside one frame looks the frame up once.
    @raise Invalid_argument if the run leaves [buf]. *)

val write_words : t -> Addr.t -> int array -> int -> int -> unit
(** [write_words m a buf off n] stores [buf.(off)] .. [buf.(off + n - 1)]
    as {!write_word} would, at [a], [a + 4], ... *)

val read_u32 : t -> Addr.t -> int32
val write_u32 : t -> Addr.t -> int32 -> unit

val read_f32 : t -> Addr.t -> float
(** Read an IEEE-754 single stored at [a] (via its bit pattern). *)

val write_f32 : t -> Addr.t -> float -> unit

val fill : t -> Addr.t -> int -> int -> unit
(** [fill m a len v] sets [len] bytes from [a] to byte value [v]. *)

val touched_frames : t -> int
(** Number of 4 KB frames materialised so far (memory-usage metric).
    Reads materialise frames too, exactly like writes. *)
