(** Partially reconfigurable region (paper §IV-A/B).

    A PRR is a predefined container in the fabric: a resource capacity,
    a register group mapped at the start of its own 4 KB page (so the
    kernel can expose it to exactly one VM with one small-page
    mapping), an associated hwMMU, and at most one loaded hardware
    task. State transitions are driven by the PRR controller and the
    PCAP. *)

type state =
  | Empty          (** no task configured *)
  | Reconfiguring  (** PCAP download in progress *)
  | Ready          (** task configured, idle *)
  | Busy           (** task processing a DMA job *)

(** Register-group indices (32-bit registers at [regs_base]):
    [ctrl] (bit0 start, bit1 irq enable); [status] (bit0 busy, bit1
    done, bit2 hwMMU violation, bit3 coherence warning, bit4 device
    fault — DMA beat error or forced reset of a hung core —
    read-to-clear for bits 1–4); [src_offset]/[dst_offset] (offsets
    inside the client
    data section); [len] (item count: complex samples or bits); [param]
    (FFT bit0 = inverse, QAM bit0 = demodulate); [task_id] (loaded
    bitstream id, read-only); [irq] (allocated PL IRQ index + 1, 0 when
    none, read-only). [count] is the group size (8). *)
module Reg : sig
  val ctrl : int
  val status : int
  val src_offset : int
  val dst_offset : int
  val len : int
  val param : int
  val task_id : int
  val irq : int
  val count : int
end

type t = {
  id : int;
  capacity : int;                       (** resource units *)
  regs_base : Addr.t;                   (** MMIO page base *)
  hw_mmu : Hw_mmu.t;
  regs : int32 array;
  mutable state : state;
  mutable loaded : Bitstream.t option;
  mutable irq_index : int option;       (** PL IRQ source 0–15 *)
  mutable busy_since : Cycles.t;        (** when the running job started
                                            (hang detection) *)
  mutable job_gen : int;                (** job generation; a forced reset
                                            bumps it so a stale completion
                                            event is ignored *)
  mutable submitted_at : Cycles.t;      (** when the last CTRL.start was
                                            decoded (refused or not) — the
                                            submit end of the SLO plane's
                                            submit→completion-vIRQ span *)
  mutable busy_cycles : int;            (** total cycles spent [Busy]
                                            (utilisation numerator) *)
}

val make : id:int -> capacity:int -> t
(** Register page at [Address_map.prr_regs_base + id·stride]. *)

val read_reg : t -> int -> int32
val write_reg : t -> int -> int32 -> unit
(** Raw register file access (semantics live in the controller).
    @raise Invalid_argument on a bad index. *)

val set_status_bit : t -> int -> bool -> unit
(** Set/clear one STATUS bit. *)

val can_host : t -> Task_kind.t -> bool
(** Capacity check: can this region host that task? *)
