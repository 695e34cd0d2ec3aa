(** Reference values transcribed from the paper's evaluation (§V.B),
    carried next to the measured values in the table3, fig9 and report
    documents. *)

type row = {
  metric : string;
  native : float;
  guests : float array;  (** 1–4 parallel guest OSes, µs *)
}

val table3 : row list
(** Table III — overhead of hardware task management, µs. *)

val kernel_loc : int
(** 5363 LoC for all kernel code and user services. *)

val kernel_elf_kb : int
(** ~40 KB ELF. *)

val hypercalls : int
(** 25 hypercalls provided to paravirtualized OSes. *)

val patch_loc : int
(** ~200 LoC µC/OS-II porting patch. *)

val time_slice_ms : float
(** 33 ms guest time slice. *)

val footprint_mb : int
(** 20 MB total memory footprint. *)
