(** E3 — the complexity/footprint figures of paper §V-B.

    The paper reports 5,363 LoC of kernel + user-service code, a 40 KB
    ELF, 25 hypercalls, a ~200 LoC µC/OS-II porting patch, a 20 MB
    memory footprint and a 33 ms time slice. This module measures the
    analogous quantities of this reproduction (line counts are taken
    from the source tree when available). *)

type report = {
  kernel_loc : int option;    (** lines in lib/core (the microkernel) *)
  patch_loc : int option;     (** lines of the paravirtualization patch *)
  hypercalls : int;           (** from the ABI enumeration *)
  time_slice_ms : float;      (** default scheduler quantum *)
  substrate_loc : int option; (** simulated-platform code, no paper analogue *)
  glue_loc : int option;      (** experiment glue: lib/harness, lib/check
                                  and bin — no paper analogue *)
}

val measure : ?root:string -> unit -> report
(** [root] is the repository root (default ["."]). Line counts are
    [None] when the sources are not found (e.g. installed binary). *)
