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
  faults : Fault_plane.t;
  fast : Fastpath.t;
  obs : Obs.t;
}

(* PRR1/2 host FFT (large), PRR3/4 host only QAM (small) — Fig 8. *)
let default_prr_capacities = [ 1300; 1300; 200; 200 ]

let create ?(prr_capacities = default_prr_capacities) ?fault_seed ?fault_rate ?(observe = false) ?(cpu = 0) () =
  let clock = Clock.create () in
  let queue = Event_queue.create clock in
  let mem = Phys_mem.create () in
  let hier = Hierarchy.create clock in
  let tlb = Tlb.create Tlb.cortex_a9 in
  let mmu = Mmu.create mem hier tlb in
  let gic = Gic.create () in
  let ptimer = Private_timer.create queue gic in
  let uart = Uart.create () in
  let sd = Sd_card.create () in
  let faults =
    Fault_plane.create
      ?seed:fault_seed
      ?rate:fault_rate ()
  in
  let obs = Obs.create ~enabled:observe ~cpu () in
  (* Meters are registered even when disabled: [Obs.set_enabled] can
     turn the plane on later and spans will attribute deltas from the
     same suppliers. *)
  Obs.register_meter obs "l1i_miss" (fun () -> Cache.misses (Hierarchy.l1i hier));
  Obs.register_meter obs "l1d_miss" (fun () -> Cache.misses (Hierarchy.l1d hier));
  Obs.register_meter obs "l2_miss" (fun () -> Cache.misses (Hierarchy.l2 hier));
  Obs.register_meter obs "tlb_miss" (fun () -> Tlb.misses tlb);
  let prrc =
    Prr_controller.create ~faults ~obs mem queue gic hier
      ~capacities:prr_capacities
  in
  let pcap = Pcap.create ~faults ~obs queue gic in
  let fast = Fastpath.create () in
  { clock; queue; mem; hier; tlb; mmu; gic; ptimer; uart; sd; prrc; pcap;
    faults; fast; obs }

let in_pl_window a =
  a >= Address_map.prr_regs_base
  && a < Address_map.prr_regs_base + Address_map.axi_gp0_size

(* Charged physical word access; words move as unsigned 32-bit ints. *)
let pread_word t a =
  if in_pl_window a then begin
    ignore (Hierarchy.access_uncached t.hier);
    Clock.advance t.clock Axi.gp_access_cycles;
    Int32.to_int (Prr_controller.mmio_read t.prrc a) land 0xFFFF_FFFF
  end
  else begin
    ignore (Hierarchy.access t.hier Hierarchy.Load a);
    Phys_mem.read_word t.mem a
  end

let pwrite_word t a v =
  if in_pl_window a then begin
    ignore (Hierarchy.access_uncached t.hier);
    Clock.advance t.clock Axi.gp_access_cycles;
    Prr_controller.mmio_write t.prrc a (Int32.of_int v)
  end
  else begin
    ignore (Hierarchy.access t.hier Hierarchy.Store a);
    Phys_mem.write_word t.mem a v
  end

(* Whether micro-TLB entry [e] still answers for [vpage] under the
   translation context: the context — TTBR, ASID, DACR, privilege — is
   pinned in the entry, and the TLB set version of the page pins its
   slot's residency (a lookup reads nothing outside its own set). *)
let mtlb_live t e ~vpage ~asid ~ttbr ~dacr ~priv =
  e.Fastpath.m_vpage = vpage && e.m_asid = asid && e.m_ttbr = ttbr
  && e.m_dacr = dacr && e.m_priv = priv
  && e.m_epoch = Tlb.set_version t.tlb vpage

(* Translate [va] through the micro-TLB and return the physical base
   of its page. A hit replays exactly the state transition of the
   TLB-hitting [Mmu.translate_exn] it stands in for (the permission
   check is context-dependent only, and [mtlb_live] pins the context
   and the slot). A miss is [Mmu.translate_exn] at [va] itself, so a
   fault carries the same address either way. *)
let translate_page t access ~priv ~asid ~ttbr ~dacr va =
  let fast = t.fast in
  let vpage = va lsr Addr.page_shift in
  let tlb = t.tlb in
  let e = Fastpath.mtlb_entry fast vpage in
  if mtlb_live t e ~vpage ~asid ~ttbr ~dacr ~priv then begin
    fast.Fastpath.mtlb_hits <- fast.Fastpath.mtlb_hits + 1;
    Tlb.refresh tlb e.m_slot;
    e.m_pbase
  end
  else begin
    fast.Fastpath.mtlb_misses <- fast.Fastpath.mtlb_misses + 1;
    let pbase = Addr.page_base (Mmu.translate_exn t.mmu access ~priv va) in
    let slot = Tlb.peek tlb ~asid ~vpage in
    if slot != Tlb.null_slot then begin
      e.m_vpage <- vpage;
      e.m_asid <- asid;
      e.m_ttbr <- ttbr;
      e.m_dacr <- dacr;
      e.m_priv <- priv;
      e.m_epoch <- Tlb.set_version tlb vpage;
      e.m_slot <- slot;
      e.m_pbase <- pbase
    end
    else e.m_vpage <- -1;
    pbase
  end

let vtranslate t access ~priv a =
  if Fastpath.enabled t.fast then
    let mmu = t.mmu in
    translate_page t access ~priv ~asid:(Mmu.asid mmu) ~ttbr:(Mmu.ttbr mmu)
      ~dacr:(Dacr.to_word (Mmu.dacr mmu)) a
    lor Addr.page_offset a
  else Mmu.translate_exn t.mmu access ~priv a

let vread_word t ~priv a = pread_word t (vtranslate t Mmu.Read ~priv a)
let vwrite_word t ~priv a v = pwrite_word t (vtranslate t Mmu.Write ~priv a) v

(* Word runs. With the fast path on, a run is cut at page ends and
   each page's words are translated ahead of their cache charges,
   which is exact: a micro-TLB hit touches no cache line and nothing
   else runs in between. Then one [Hierarchy.access_words] charges
   the page's words. A PL-window page, an unaligned run, or a first
   translation that left no micro-TLB entry takes the scalar loop
   instead; a fault on page k leaves pages before k done, as the
   scalar loop would.

   [page_words] translates the [n] words of one page from [va] and
   returns the physical address of [va] when all of them were
   translated, or [lnot] of it when the caller must finish the page
   word by word after the first. A live micro-TLB entry replays all
   [n] translations in one step (hit counter and [Tlb.refresh_n]: the
   hits their own translations would score); otherwise one full
   [translate_page] serves the first word and the others replay the
   entry it installed. *)
let page_words t access ~priv ~asid ~ttbr ~dacr va n =
  let fast = t.fast in
  let vpage = va lsr Addr.page_shift in
  let e = Fastpath.mtlb_entry fast vpage in
  let hit_pa = e.Fastpath.m_pbase lor Addr.page_offset va in
  let live =
    mtlb_live t e ~vpage ~asid ~ttbr ~dacr ~priv && not (in_pl_window hit_pa)
  in
  let pa =
    if live then hit_pa
    else
      translate_page t access ~priv ~asid ~ttbr ~dacr va
      lor Addr.page_offset va
  in
  if
    live
    || (mtlb_live t e ~vpage ~asid ~ttbr ~dacr ~priv && not (in_pl_window pa))
  then begin
    let k = if live then n else n - 1 in
    fast.Fastpath.mtlb_hits <- fast.Fastpath.mtlb_hits + k;
    Tlb.refresh_n t.tlb e.Fastpath.m_slot k;
    pa
  end
  else lnot pa

let scalar_word t ~write ~priv a buf i =
  if write then vwrite_word t ~priv a (Array.unsafe_get buf i)
  else Array.unsafe_set buf i (vread_word t ~priv a)

let run_words t access ~priv va buf off n =
  let write = access = Mmu.Write in
  if off < 0 || n < 0 || off + n > Array.length buf then
    invalid_arg "Zynq: word run outside the buffer";
  if not (Fastpath.enabled t.fast) || va land 3 <> 0 then
    for k = 0 to n - 1 do
      scalar_word t ~write ~priv (va + (4 * k)) buf (off + k)
    done
  else begin
    let mmu = t.mmu in
    let asid = Mmu.asid mmu and ttbr = Mmu.ttbr mmu in
    let dacr = Dacr.to_word (Mmu.dacr mmu) in
    let k = ref 0 in
    while !k < n do
      let a = va + (4 * !k) in
      let m = Int.min (n - !k) ((Addr.page_size - Addr.page_offset a) / 4) in
      let pa = page_words t access ~priv ~asid ~ttbr ~dacr a m in
      let i = off + !k in
      if pa >= 0 then begin
        ignore
          (Hierarchy.access_words t.hier
             (if write then Hierarchy.Store else Hierarchy.Load) pa m);
        if write then Phys_mem.write_words t.mem pa buf i m
        else Phys_mem.read_words t.mem pa buf i m
      end
      else begin
        (* The page's first word is translated already. *)
        let pa = lnot pa in
        if write then pwrite_word t pa (Array.unsafe_get buf i)
        else Array.unsafe_set buf i (pread_word t pa);
        for j = 1 to m - 1 do
          scalar_word t ~write ~priv (a + (4 * j)) buf (i + j)
        done
      end;
      k := !k + m
    done
  end

let vread_words t ~priv va buf off n = run_words t Mmu.Read ~priv va buf off n

let vwrite_words t ~priv va buf off n =
  run_words t Mmu.Write ~priv va buf off n


let vread_u8 t ~priv a =
  let pa = vtranslate t Mmu.Read ~priv a in
  if in_pl_window pa then invalid_arg "Zynq.vread_u8: byte access to PL regs"
  else begin
    ignore (Hierarchy.access t.hier Hierarchy.Load pa);
    Phys_mem.read_u8 t.mem pa
  end

let vwrite_u8 t ~priv a v =
  let pa = vtranslate t Mmu.Write ~priv a in
  if in_pl_window pa then invalid_arg "Zynq.vwrite_u8: byte access to PL regs"
  else begin
    ignore (Hierarchy.access t.hier Hierarchy.Store pa);
    Phys_mem.write_u8 t.mem pa v
  end

let idle_until_next_event t =
  match Event_queue.next_deadline t.queue with
  | None -> false
  | Some d ->
    ignore (Event_queue.advance_until t.queue d);
    true
