(** Generic Interrupt Controller (distributor + CPU interface).

    All physical interrupts funnel through here (paper §III-B):
    devices call {!raise_irq}; the kernel's IRQ exception path calls
    {!ack} to learn the lowest-numbered pending enabled source, writes
    {!eoi}, and injects the corresponding virtual interrupt through the
    current VM's vGIC. On each VM switch the kernel masks the outgoing
    VM's sources and unmasks the incoming VM's enabled ones
    ({!set_enabled_mask}). *)

type t

val create : unit -> t
(** All sources disabled, nothing pending. Every source keeps the
    reset priority, so arbitration goes by id. *)

val enable : t -> int -> unit

val raise_irq : t -> int -> unit
(** Device-side: latch the source pending. Idempotent while pending. *)

val is_pending : t -> int -> bool

val line_asserted : t -> bool
(** The nIRQ line to the CPU: true when some enabled source is pending
    and not already active. *)

val ack : t -> int option
(** CPU interface read of ICCIAR: take the lowest-numbered pending
    enabled source, mark it active, clear pending. [None] on a spurious
    read. *)

val eoi : t -> int -> unit
(** CPU interface write of ICCEOIR: deactivate the source. *)

val set_enabled_mask : t -> keep:int list -> enable:int list -> unit
(** VM-switch helper: disable every source {e except} [keep] (the
    kernel-owned ones), then enable each source in [enable]. *)

val enabled_list : t -> int list
(** Currently enabled ids, ascending (test/debug). *)
