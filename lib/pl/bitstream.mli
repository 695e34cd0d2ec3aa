(** Partial bitstream (.bit) descriptors.

    Configuration data for one hardware task, stored in DDR inside the
    Hardware Task Manager's exclusive region (paper §IV-B). Size drives
    the PCAP reconfiguration latency, reproducing the size/delay
    relation the paper inherits from its companion work [17]. *)

type id = int

type t = {
  id : id;
  kind : Task_kind.t;
  size_bytes : int;      (** .bit file size *)
  store_addr : Addr.t;   (** physical location in the bitstream store *)
}

val size_for : Task_kind.t -> int
(** Representative .bit sizes: QAM ≈ 80 KB; FIR ≈ 100 KB + 1 KB per
    tap; FFT grows from ≈250 KB (256-pt) to ≈600 KB (8192-pt); the
    streaming FFT adds FIFO BRAM (≈320–670 KB); scrambler ≈ 71–95 KB;
    digest ≈ 214–230 KB; matmul ≈ 396–508 KB. The catalog deliberately
    spans ~71 KB–670 KB so PCAP reconfiguration latency varies by an
    order of magnitude across kinds. *)

val make : id:id -> kind:Task_kind.t -> store_addr:Addr.t -> t
(** Build a descriptor with {!size_for} as size.
    @raise Invalid_argument if the kind is out of range. *)
