(** Virtual memory layout of a guest VM.

    Every guest sees the same 16 MB virtual window at 0x1000_0000
    (clear of the kernel's identity-mapped regions), backed by its
    private physical allotment ({!Address_map.guest_phys_base}):

    {v
    0x1000_0000 .. 0x1040_0000   guest kernel   (domain guest-kernel)
    0x1040_0000 .. 0x10F0_0000   guest user     (domain guest-user)
    0x10F0_0000 .. 0x1100_0000   page region: PRR interfaces and
                                 guest-requested 4 KB mappings
    v}

    The first two areas are section-mapped linearly to the physical
    allotment; the page region holds on-demand small pages (hardware
    task interfaces must sit on their own 4 KB page — paper §IV-C). *)

val kernel_base : Addr.t
val kernel_size : int

val user_base : Addr.t
val user_size : int

val page_region_base : Addr.t
val page_region_size : int

val default_data_section : Addr.t
(** Conventional hardware-task data section (inside the user area);
    guests may choose another. *)

val default_data_section_len : int
(** 256 KB: room for an 8192-point complex FFT in and out. *)

val default_iface_vaddr : int -> Addr.t
(** [default_iface_vaddr prr] — conventional interface page for PRR
    [prr] inside the page region. *)

val task_iface_vaddr : int -> Addr.t
(** [task_iface_vaddr task] — the interface page a guest library picks
    for [task] when the caller names none: page [64 + (task land 127)]
    of the page region, clear of the per-PRR pages above. *)

val to_phys : phys_base:Addr.t -> Addr.t -> Addr.t
(** Linear translation for the section-mapped areas (kernel + user).
    @raise Invalid_argument inside the page region (not linear). *)

(** {2 ABI v2 descriptor-ring pages}

    [Ring_setup] places the submission ring on the 4 KB page at
    [ring_sq_base] and the completion ring on the page right above, at
    fixed spots in the linearly-mapped user area. Each page carries a
    64 B header ({e submission}: guest-written tail at +0, kernel head
    at +4; {e completion}: kernel tail at +0, guest head at +4; all
    free-running u32 counters) followed by the entry array. Submission
    descriptors are 32 B: op (+0, 0=request 1=release), task (+4),
    interface vaddr (+8), data vaddr (+12), data length (+16), flags
    (+20, bit 0 = want completion vIRQ), tag (+24). Completion entries
    are 16 B: tag (+0), status (+4), PRR id + 1 (+8), vIRQ + 1 (+12). *)

val ring_sq_base : Addr.t
val ring_cq_base : Addr.t

val ring_max_entries : int
(** 64 — both rings fit their 4 KB page at this depth. *)

val ring_hdr_size : int
val ring_desc_size : int
val ring_cqe_size : int

val ring_desc_words : int
(** 7: the descriptor's words, op through tag; the slot's last word is
    padding. *)
