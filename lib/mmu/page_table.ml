type t = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  root : Addr.t;
  mutable l2_count : int;
  mutable l2_bases : Addr.t list;
  mutable destroyed : bool;
}

let l1_size = 16 * 1024
let l2_size = 1024

let create mem alloc =
  let root = Frame_alloc.alloc alloc ~align:l1_size l1_size in
  Phys_mem.fill mem root l1_size 0;
  { mem; alloc; root; l2_count = 0; l2_bases = []; destroyed = false }

let root t = t.root

let l1_slot t virt = t.root + (4 * (virt lsr Addr.section_shift))
let l2_slot l2_base virt =
  l2_base + (4 * ((virt lsr Addr.page_shift) land 0xff))

let read_l1 t virt = Pte.decode_l1 (Phys_mem.read_u32 t.mem (l1_slot t virt))

let write_l1 t virt d =
  Phys_mem.write_u32 t.mem (l1_slot t virt) (Pte.encode_l1 d)

let map_section t ~virt ~phys attrs =
  if not (Addr.is_aligned virt Addr.section_size) then
    invalid_arg "map_section: virtual address not 1 MB aligned";
  match read_l1 t virt with
  | Pte.L1_table _ ->
    invalid_arg "map_section: slot already holds a page table"
  | Pte.L1_fault | Pte.L1_section _ ->
    write_l1 t virt (Pte.L1_section (phys, attrs))

(* [ensure_l2_base], [map_page] and [unmap_page] run on every ABI v1
   request and release (the interface page), so they test and write
   descriptor words as ints: decoding into [Pte.l1]/[Pte.l2] values
   would allocate on each call. A reserved encoding raises exactly as
   the decoders do. *)
let reserved_l1 () = invalid_arg "Pte.decode_l1: reserved descriptor type"

let ensure_l2_base t ~virt ~domain =
  let v = Phys_mem.read_word t.mem (l1_slot t virt) in
  match v land 0b11 with
  | 0b01 ->
    if (v lsr 5) land 0xf <> domain then
      invalid_arg "ensure_l2: domain conflicts with existing L2 table";
    v land lnot 1023
  | 0b00 ->
    let base = Frame_alloc.alloc t.alloc ~align:l2_size l2_size in
    Phys_mem.fill t.mem base l2_size 0;
    t.l2_count <- t.l2_count + 1;
    t.l2_bases <- base :: t.l2_bases;
    write_l1 t virt (Pte.L1_table (base, domain));
    base
  | 0b10 ->
    ignore (Pte.section_base v);
    invalid_arg "ensure_l2: slot already holds a section mapping"
  | _ -> reserved_l1 ()

let ensure_l2 t ~virt ~domain = ignore (ensure_l2_base t ~virt ~domain)

let map_page t ~virt ~phys ~domain ~ap ~global =
  if not (Addr.is_aligned virt Addr.page_size) then
    invalid_arg "map_page: virtual address not 4 KB aligned";
  if not (Addr.is_aligned phys Addr.page_size) then
    invalid_arg "map_page: physical address not 4 KB aligned";
  let l2_base = ensure_l2_base t ~virt ~domain in
  Phys_mem.write_word t.mem (l2_slot l2_base virt)
    (Pte.small_word phys ap global)

let unmap_page t ~virt =
  let v = Phys_mem.read_word t.mem (l1_slot t virt) in
  match v land 0b11 with
  | 0b00 -> false
  | 0b10 -> ignore (Pte.section_base v); false
  | 0b01 ->
    let slot = l2_slot (v land lnot 1023) virt in
    let w = Phys_mem.read_word t.mem slot in
    (match w land 0b11 with
     | 0b00 -> false
     | 0b10 ->
       ignore (Pte.small_base w);
       Phys_mem.write_word t.mem slot 0;
       true
     | _ -> invalid_arg "Pte.decode_l2: reserved descriptor type")
  | _ -> reserved_l1 ()

let walk ~read ~root ~virt =
  let l1_word = read (root + (4 * (virt lsr Addr.section_shift))) in
  match Pte.decode_l1 l1_word with
  | Pte.L1_fault -> None
  | Pte.L1_section (base, attrs) ->
    Some (base lor (virt land (Addr.section_size - 1)), attrs)
  | Pte.L1_table (l2_base, domain) ->
    let l2_word = read (l2_slot l2_base virt) in
    (match Pte.decode_l2 l2_word with
     | Pte.L2_fault -> None
     | Pte.L2_small (base, ap, global) ->
       Some
         (base lor (virt land (Addr.page_size - 1)),
          { Pte.ap; domain; global }))

let charged_load hier mem a =
  ignore (Hierarchy.access hier Hierarchy.Load a);
  Phys_mem.read_word mem a

let walk_pa hier mem ~root ~virt =
  let v = charged_load hier mem (root + (4 * (virt lsr Addr.section_shift))) in
  match v land 0b11 with
  | 0b00 -> -1
  | 0b10 -> Pte.section_base v lor (virt land (Addr.section_size - 1))
  | 0b01 ->
    let w = charged_load hier mem (l2_slot (v land lnot 1023) virt) in
    (match w land 0b11 with
     | 0b00 -> -1
     | 0b10 -> Pte.small_base w lor (virt land (Addr.page_size - 1))
     | _ -> invalid_arg "Pte.decode_l2: reserved descriptor type")
  | _ -> reserved_l1 ()

let l2_tables t = t.l2_count

let footprint_bytes t =
  if t.destroyed then 0 else l1_size + (t.l2_count * l2_size)

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    List.iter (fun b -> Frame_alloc.free t.alloc b l2_size) t.l2_bases;
    t.l2_bases <- [];
    t.l2_count <- 0;
    Frame_alloc.free t.alloc t.root l1_size
  end
