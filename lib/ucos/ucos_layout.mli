(** Guest-virtual layout of the µC/OS-II image.

    Shared by both ports so that a given OS service touches the same
    virtual (and, per guest, physical) cache lines natively and under
    virtualization — the comparison in Table III depends on that. *)

val os_code_base : Addr.t
(** OS kernel code (inside the guest-kernel area): window base + 0x8000. *)

val app_code_base : Addr.t
(** Where applications place their own code footprints: window base + 0x10000. *)

val tcb_base : Addr.t
(** Task control blocks + ready bitmap (data). *)
