(** The assembled Zynq-7000 board.

    One value of this type is one simulated chip: clock, event queue,
    DDR, cache hierarchy, TLB, MMU, GIC, private timer, UART, SD card,
    and the PL side (PRR controller + PCAP). Components are exposed
    directly — the microkernel is privileged code and drives them like
    bare-metal drivers would.

    Virtual-address accessors perform a real MMU translation at the
    current TTBR/ASID/DACR, charge cache-hierarchy cost, and route
    PL-window physical addresses to the PRR controller's registers
    (uncached, over AXI_GP). *)

type t = {
  clock : Clock.t;
  queue : Event_queue.t;
  mem : Phys_mem.t;
  hier : Hierarchy.t;
  tlb : Tlb.t;
  mmu : Mmu.t;
  gic : Gic.t;
  ptimer : Private_timer.t;
  uart : Uart.t;
  sd : Sd_card.t;
  prrc : Prr_controller.t;
  pcap : Pcap.t;
  faults : Fault_plane.t;  (** fault-injection plane shared by PCAP and
                               the PRR controller; disabled by default *)
  fast : Fastpath.t;  (** per-CPU exact fast-path state used by [Exec]
                          and the word accessors below *)
  obs : Obs.t;  (** observability plane shared by the kernel, the HTM
                    and the PL models; disabled by default, never
                    advances the clock *)
}

val create :
  ?prr_capacities:int list -> ?lat:Hierarchy.latencies ->
  ?on_uart:(char -> unit) ->
  ?fault_seed:int -> ?fault_rate:float -> ?observe:bool -> ?cpu:int ->
  unit -> t
(** [fault_seed]/[fault_rate] arm the board's {!Fault_plane} (default:
    seed 0, rate 0.0 — disabled, zero-cost). [observe] enables the
    board's {!Obs} plane (default false); cache and TLB miss meters
    are registered either way, so the plane can also be switched on
    later with [Obs.set_enabled]. [cpu] (default 0) is the simulated
    pCPU id this board models; it is stamped on the board's {!Obs}
    breakdown cells. *)

(** {2 Virtual-address CPU accesses}

    All of these translate through the MMU ([priv] selects the
    privilege the access is checked at), raise {!Mmu.Fault} on a
    failed translation, and charge time.

    With the fast path enabled the translation goes through the
    per-CPU micro-TLB ({!translate_page}), which is exact: simulated
    cycles, TLB statistics and faults are those of a plain
    {!Mmu.translate_exn}, which is what every access uses when the
    fast path is disabled. *)

val vread_word : t -> priv:bool -> Addr.t -> int
(** The 32-bit word at [a] as an unsigned [int] (no boxing). *)

val vwrite_word : t -> priv:bool -> Addr.t -> int -> unit
(** Store the low 32 bits of the value at [a]. *)

val vread_words : t -> priv:bool -> Addr.t -> int array -> int -> int -> unit
(** [vread_words t ~priv va buf off n] reads the [n] words at [va, va +
    4, …] into [buf.(off) … buf.(off + n - 1)]: the same simulated
    cycles, cache/TLB/micro-TLB statistics, faults and values as [n]
    {!vread_word} calls in order. With the fast path on, each page of
    the run translates once in full, its other words replay their
    micro-TLB hits, and one {!Hierarchy.access_words} charges the
    page; PL-window or unaligned words take the scalar path. A fault
    raises {!Mmu.Fault} with the words before it done.
    @raise Invalid_argument if the run does not fit [buf]. *)

val vwrite_words : t -> priv:bool -> Addr.t -> int array -> int -> int -> unit
(** The store counterpart of {!vread_words}: writes the low 32 bits of
    [buf.(off) … buf.(off + n - 1)] to [va, va + 4, …]. *)

val vread_u32 : t -> priv:bool -> Addr.t -> int32
val vwrite_u32 : t -> priv:bool -> Addr.t -> int32 -> unit
val vread_u8 : t -> priv:bool -> Addr.t -> int
val vwrite_u8 : t -> priv:bool -> Addr.t -> int -> unit
val vread_f32 : t -> priv:bool -> Addr.t -> float
val vwrite_f32 : t -> priv:bool -> Addr.t -> float -> unit

val translate_page :
  t -> Mmu.access -> priv:bool -> asid:int -> ttbr:int -> dacr:int ->
  Addr.t -> Addr.t
(** [translate_page t access ~priv ~asid ~ttbr ~dacr va] is the
    physical base of the page holding [va], through the micro-TLB.
    [asid]/[ttbr]/[dacr] must be the MMU's current context (the caller
    reads it once for a batch of pages). A hit replays the TLB slot
    ({!Tlb.refresh}); a miss is {!Mmu.translate_exn} at [va], faults
    included, and installs the entry. On return the page's micro-TLB
    entry names the TLB slot holding the translation, or is empty
    ([m_vpage = -1]) when no slot holds it. The one translate function
    of the fast path: {!Exec} and the word accessors both use it. *)

(** {2 Physical (kernel / device) accesses} *)

val in_pl_window : Addr.t -> bool
(** True for addresses decoding to PRR register groups. *)

val idle_until_next_event : t -> bool
(** CPU idle (WFI): skip the clock to the next pending event and fire
    it. Returns false when no event is pending (nothing will ever
    happen again). *)
