(** Interrupt source numbering on the Zynq-7000 (UG585 table 7-3).

    Shared-peripheral interrupt IDs used across the simulation: the
    private timer, the DevCfg (PCAP done) interrupt and the
    sixteen PL-to-PS fabric interrupts the PRR controller drives
    (paper §IV-D supports "up to 16 different IRQ sources generated
    from the FPGA side"). *)

val max_irq : int
(** Exclusive upper bound on IRQ ids (96, covering the Zynq SPI map). *)

val private_timer : int
(** PPI 29 — the kernel's scheduling tick. *)

val devcfg : int
(** SPI 40 — PCAP bitstream-download completion. *)

val pl_count : int
(** Number of PL fabric interrupts: 16. *)

val pl : int -> int
(** [pl i] is the GIC id of fabric interrupt [i] (0–15): ids 61–68 and
    84–91 as on the real part. @raise Invalid_argument out of range. *)

val pl_index : int -> int option
(** Inverse of {!pl}: [pl_index id] is [Some i] when [id] is a fabric
    interrupt. *)
