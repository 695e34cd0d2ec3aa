(** Bump allocator with size-bucketed free lists over a physical
    region.

    Hands out aligned chunks of simulated physical memory for kernel
    objects: L1 tables (16 KB), L2 tables (1 KB), kernel stacks. The
    high-water mark only grows, but freed chunks are recycled for
    later same-size requests, so a VM destroy→create lifecycle runs in
    bounded kernel memory. When nothing has been freed the allocator
    behaves exactly like the original pure bump allocator. *)

type t

val create : base:Addr.t -> size:int -> t

val add_region : t -> base:Addr.t -> size:int -> unit
(** Attach a one-off overflow region, bump-allocated only after the
    primary region is exhausted: placement inside the primary region
    is byte-identical with or without the overflow attached.
    @raise Invalid_argument if one is already attached or empty. *)

val alloc : t -> ?align:int -> int -> Addr.t
(** [alloc t ~align n] returns an [align]-aligned physical base of [n]
    bytes — a recycled chunk of exactly size [n] whose address
    satisfies [align] if one is free, else fresh bytes from the bump
    pointer (default alignment 4).
    @raise Failure when the region is exhausted. *)

val free : t -> Addr.t -> int -> unit
(** Return a chunk obtained from {!alloc} (same address and size) to
    the allocator.
    @raise Invalid_argument on a chunk outside the allocated region or
    an already-free chunk of the same size. *)

val live_bytes : t -> int
(** Bytes currently handed out (sum of allocation sizes minus frees;
    alignment padding is excluded) — the quantity the kernel invariant
    plane reconciles against live translation tables. *)
