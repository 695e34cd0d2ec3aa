(** ARM short-descriptor page-table entry encoding.

    A faithful-in-spirit (bit-packed, stored in simulated RAM as 32-bit
    words) encoding of the two-level format the paper's MMU uses:
    first-level entries are either section mappings (1 MB) or pointers
    to a second-level table; second-level entries are 4 KB small pages.
    Access permissions are the three classes the paper lists in §III-C:
    no access / privileged only / full access. *)

type ap =
  | Ap_none   (** no access at any privilege *)
  | Ap_priv   (** accessible only at PL1 *)
  | Ap_full   (** accessible at PL0 and PL1 *)

type attrs = {
  ap : ap;
  domain : int;   (** 0–15, selects the DACR field that governs entry *)
  global : bool;  (** kernel mapping: TLB entry matches any ASID *)
}

type l1 =
  | L1_fault
  | L1_table of Addr.t * int
      (** physical base of the L2 table, and the domain that governs
          every page it maps (as in the real format, the domain lives
          in the first-level descriptor) *)
  | L1_section of Addr.t * attrs         (** 1 MB mapping *)

type l2 =
  | L2_fault
  | L2_small of Addr.t * ap * bool       (** 4 KB page: base, AP, global *)

val encode_l1 : l1 -> int32
val decode_l1 : int32 -> l1
val encode_l2 : l2 -> int32
val decode_l2 : int32 -> l2

val section_base : int -> Addr.t
(** Physical base of a section descriptor (the unsigned value of its
    word, type bits [0b10]), with no allocation; raises on a reserved
    AP encoding exactly as {!decode_l1} does. *)

val small_base : int -> Addr.t
(** The same for a small-page descriptor, as {!decode_l2} does. *)

val small_word : Addr.t -> ap -> bool -> int
(** [encode_l2 (L2_small (base, ap, global))] as an unsigned [int], with
    the same checks and no allocation. *)

val attr_word : attrs -> int
(** Pack attributes into the opaque int the TLB stores. *)

val attr_of_word : int -> attrs
(** Inverse of {!attr_word}. *)
