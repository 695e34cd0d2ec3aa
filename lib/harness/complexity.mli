(** E3 — the complexity/footprint figures of paper §V-B.

    The paper reports 5,363 LoC of kernel + user-service code, a 40 KB
    ELF, 25 hypercalls, a ~200 LoC µC/OS-II porting patch, a 20 MB
    memory footprint and a 33 ms time slice. This module measures the
    analogous quantities of this reproduction (line counts are taken
    from the source tree when available). *)

type report = {
  kernel_loc : int option;    (** {!kernel_dirs}: the microkernel *)
  guest_loc : int option;     (** {!guest_dirs}: the µC/OS-II guest *)
  patch_loc : int option;     (** lines of the paravirtualization patch,
                                  counted inside [guest_loc] *)
  hypercalls : int;           (** from the ABI enumeration *)
  time_slice_ms : float;      (** default scheduler quantum *)
  substrate_loc : int option; (** {!substrate_dirs}: the simulated board,
                                  its models and the guest workloads — no
                                  paper analogue *)
  glue_loc : int option;      (** {!glue_dirs}: experiment glue — no paper
                                  analogue *)
}

(** The buckets, as source directories relative to the repository
    root. Every directory under [lib/] is in exactly one of them. *)

val kernel_dirs : string list
val guest_dirs : string list
val substrate_dirs : string list
val glue_dirs : string list

val measure : ?root:string -> unit -> report
(** [root] is the repository root (default ["."]). Line counts are
    [None] when the sources are not found (e.g. installed binary). *)
