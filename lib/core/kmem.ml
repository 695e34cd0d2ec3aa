let dom_kernel = 0
let dom_guest_kernel = 1
let dom_guest_user = 2

type t = {
  zynq : Zynq.t;
  alloc : Frame_alloc.t;
  kernel_pt : Page_table.t;
  (* Guest tags 2..255 (0 kernel, 1 manager) and their holding PDs;
     the cursor round-robins steals over the tags. *)
  asids : Id_pool.t;
  mutable steal_cursor : int;
  (* Page tables of dead VMs whose root may still be loaded in TTBR:
     destroying them immediately would let the allocator hand the
     frames out while the MMU can still walk them. They are destroyed
     at the next context activation that moves TTBR elsewhere. *)
  mutable retired_pts : Page_table.t list;
}

let kernel_attrs =
  { Pte.ap = Pte.Ap_priv; domain = dom_kernel; global = true }

let map_identity_sections pt ~base ~size attrs =
  let first = Addr.section_base base in
  let last = Addr.section_base (base + size - 1) in
  let a = ref first in
  while !a <= last do
    Page_table.map_section pt ~virt:!a ~phys:!a attrs;
    a := !a + Addr.section_size
  done

(* Kernel global mappings shared by every address space. *)
let install_kernel_globals pt =
  map_identity_sections pt ~base:Address_map.kernel_code_base
    ~size:Address_map.kernel_code_size kernel_attrs;
  map_identity_sections pt ~base:Address_map.kernel_data_base
    ~size:Address_map.kernel_data_size kernel_attrs

let create zynq =
  (* Kernel objects (page tables, save areas) live in the upper part of
     the kernel data region; Klayout's static objects use the bottom. *)
  let heap_off = 0x80000 in
  let alloc =
    Frame_alloc.create
      ~base:(Address_map.kernel_data_base + heap_off)
      ~size:(Address_map.kernel_data_size - heap_off)
  in
  (* Fleet-scale guest populations need more page-table frames than the
     in-image heap holds; spill into the dedicated heap region above the
     low DDR bank. Placement in the primary region is unchanged. *)
  Frame_alloc.add_region alloc ~base:Address_map.kernel_heap_base
    ~size:Address_map.kernel_heap_size;
  let kernel_pt = Page_table.create zynq.Zynq.mem alloc in
  install_kernel_globals kernel_pt;
  map_identity_sections kernel_pt ~base:Address_map.bitstream_store_base
    ~size:Address_map.bitstream_store_size kernel_attrs;
  map_identity_sections kernel_pt ~base:Address_map.axi_gp0_base
    ~size:Address_map.axi_gp0_size kernel_attrs;
  let t =
    { zynq; alloc; kernel_pt; asids = Id_pool.create ~first:2 ~limit:256;
      steal_cursor = 1; retired_pts = [] }
  in
  Mmu.set_ttbr zynq.Zynq.mmu (Page_table.root kernel_pt);
  Mmu.set_asid zynq.Zynq.mmu 0;
  Dacr.set_all (Mmu.dacr zynq.Zynq.mmu) Dacr.Client;
  t

let kernel_pt t = t.kernel_pt
let allocator t = t.alloc

let asids t = t.asids

let try_alloc_asid t ~pd =
  let recycled = Id_pool.recycles_next t.asids in
  let a = Id_pool.take t.asids ~holder:pd in
  (* Recycled: stale entries tagged with the previous holder must go
     before the ASID can name a new address space. Host-side only —
     the cycle charge belongs to the kill path's bookkeeping, and
     table3-style fixed populations never reach this branch. *)
  if recycled then ignore (Tlb.flush_asid t.zynq.Zynq.tlb (Option.get a));
  a

let steal_asid t ~pd =
  let rec walk probes =
    (* Accounting invariant, not a guest-reachable state: the pool is
       full, so all 254 tags are held by live PDs, none by [pd], which
       holds the sentinel. Invariant's [asid_accounting] checker
       catches the drift. *)
    if probes > 254 then failwith "Kmem.steal_asid: no stealable ASID";
    t.steal_cursor <-
      (if t.steal_cursor >= 255 then 2 else t.steal_cursor + 1);
    let h = Id_pool.holder t.asids t.steal_cursor in
    if h >= 0 && h <> pd then (t.steal_cursor, h) else walk (probes + 1)
  in
  let (a, _) as stolen = walk 1 in
  Id_pool.set_holder t.asids a pd;
  stolen

let free_asid t a = Id_pool.release t.asids a

let retire_guest_pt t pt =
  if Mmu.ttbr t.zynq.Zynq.mmu = Page_table.root pt then
    t.retired_pts <- pt :: t.retired_pts
  else Page_table.destroy pt

let flush_retired t =
  match t.retired_pts with
  | [] -> ()
  | pts ->
    let ttbr = Mmu.ttbr t.zynq.Zynq.mmu in
    let keep, dead =
      List.partition (fun pt -> Page_table.root pt = ttbr) pts
    in
    List.iter Page_table.destroy dead;
    t.retired_pts <- keep

let retired_bytes t =
  List.fold_left (fun n pt -> n + Page_table.footprint_bytes pt) 0
    t.retired_pts

let make_guest_pt t ~index =
  let pt = Page_table.create t.zynq.Zynq.mem t.alloc in
  install_kernel_globals pt;
  let phys_base = Address_map.guest_phys_base index in
  let phys_of virt = phys_base + (virt - Guest_layout.kernel_base) in
  (* Guest kernel image: domain 1, full access (USR), toggled by DACR. *)
  let a = ref Guest_layout.kernel_base in
  while !a < Guest_layout.kernel_base + Guest_layout.kernel_size do
    Page_table.map_section pt ~virt:!a ~phys:(phys_of !a)
      { Pte.ap = Pte.Ap_full; domain = dom_guest_kernel; global = false };
    a := !a + Addr.section_size
  done;
  (* Guest user: domain 2. *)
  let a = ref Guest_layout.user_base in
  while !a < Guest_layout.user_base + Guest_layout.user_size do
    Page_table.map_section pt ~virt:!a ~phys:(phys_of !a)
      { Pte.ap = Pte.Ap_full; domain = dom_guest_user; global = false };
    a := !a + Addr.section_size
  done;
  pt

let charge_context_regs t =
  Clock.advance t.zynq.Zynq.clock (Costs.ttbr_asid_write + Costs.dacr_write)

let activate_manager t ~asid =
  Mmu.set_ttbr t.zynq.Zynq.mmu (Page_table.root t.kernel_pt);
  flush_retired t;
  Mmu.set_asid t.zynq.Zynq.mmu asid;
  Dacr.set_all (Mmu.dacr t.zynq.Zynq.mmu) Dacr.Client;
  charge_context_regs t

let set_guest_dacr t mode =
  let d = Mmu.dacr t.zynq.Zynq.mmu in
  Dacr.set d dom_guest_kernel
    (match mode with
     | Hyper.Gm_kernel -> Dacr.Client
     | Hyper.Gm_user -> Dacr.No_access);
  Clock.advance t.zynq.Zynq.clock Costs.dacr_write

let activate_guest t (pd : Pd.t) =
  Mmu.set_ttbr t.zynq.Zynq.mmu (Page_table.root pd.Pd.pt);
  flush_retired t;
  Mmu.set_asid t.zynq.Zynq.mmu pd.Pd.asid;
  let d = Mmu.dacr t.zynq.Zynq.mmu in
  Dacr.set d dom_kernel Dacr.Client;
  Dacr.set d dom_guest_user Dacr.Client;
  Dacr.set d dom_guest_kernel
    (match Vcpu.guest_mode pd.Pd.vcpu with
     | Hyper.Gm_kernel -> Dacr.Client
     | Hyper.Gm_user -> Dacr.No_access);
  charge_context_regs t

let in_page_region vaddr =
  vaddr >= Guest_layout.page_region_base
  && vaddr < Guest_layout.page_region_base + Guest_layout.page_region_size

let charge_pt_update t =
  Clock.advance t.zynq.Zynq.clock Costs.pt_update

(* ASID 0 is the "no ASID assigned yet" sentinel of an over-committed
   PD: the guest has never run under its own tag, so there are no
   stale entries to shoot down (and flushing ASID 0 would evict kernel
   translations instead). *)
let flush_guest_page t (pd : Pd.t) vaddr =
  if pd.Pd.asid <> 0 then
    Tlb.flush_page t.zynq.Zynq.tlb ~asid:pd.Pd.asid
      ~vpage:(vaddr lsr Addr.page_shift)

let guest_map_page t (pd : Pd.t) ~vaddr ~gphys_off ~user =
  if not (Addr.is_aligned vaddr Addr.page_size) then
    Error "map: vaddr not page aligned"
  else if not (in_page_region vaddr) then
    Error "map: vaddr outside the guest page region"
  else if
    gphys_off < 0
    || gphys_off + Addr.page_size > Address_map.guest_phys_size
    || not (Addr.is_aligned gphys_off Addr.page_size)
  then Error "map: bad guest-physical offset"
  else begin
    let domain = if user then dom_guest_user else dom_guest_kernel in
    (try
       Page_table.map_page pd.Pd.pt ~virt:vaddr
         ~phys:(pd.Pd.phys_base + gphys_off) ~domain ~ap:Pte.Ap_full
         ~global:false;
       flush_guest_page t pd vaddr;
       charge_pt_update t;
       Ok ()
     with Invalid_argument e -> Error e)
  end

let guest_unmap_page t (pd : Pd.t) ~vaddr =
  if not (in_page_region vaddr) then
    Error "unmap: vaddr outside the guest page region"
  else begin
    let existed = Page_table.unmap_page pd.Pd.pt ~virt:vaddr in
    flush_guest_page t pd vaddr;
    charge_pt_update t;
    if existed then Ok () else Error "unmap: nothing mapped"
  end

let map_iface t (pd : Pd.t) ~prr_regs_base ~vaddr =
  if not (Addr.is_aligned vaddr Addr.page_size) then
    Error "iface: vaddr not page aligned"
  else if not (in_page_region vaddr) then
    Error "iface: vaddr outside the guest page region"
  else
    (try
       Page_table.map_page pd.Pd.pt ~virt:vaddr ~phys:prr_regs_base
         ~domain:dom_guest_user ~ap:Pte.Ap_full ~global:false;
       flush_guest_page t pd vaddr;
       charge_pt_update t;
       Ok ()
     with Invalid_argument e -> Error e)

let unmap_iface t (pd : Pd.t) ~vaddr =
  ignore (Page_table.unmap_page pd.Pd.pt ~virt:vaddr);
  flush_guest_page t pd vaddr;
  charge_pt_update t

let guest_translate t (pd : Pd.t) vaddr =
  Page_table.walk_pa t.zynq.Zynq.hier t.zynq.Zynq.mem
    ~root:(Page_table.root pd.Pd.pt) ~virt:vaddr
