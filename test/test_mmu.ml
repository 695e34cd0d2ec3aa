(* Tests for PTE encoding, DACR, page tables, and the MMU. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let gen_ap = QCheck2.Gen.oneofl [ Pte.Ap_none; Pte.Ap_priv; Pte.Ap_full ]

let gen_attrs =
  QCheck2.Gen.map3
    (fun ap domain global -> { Pte.ap; domain; global })
    gen_ap
    (QCheck2.Gen.int_range 0 15)
    QCheck2.Gen.bool

let prop_l1_section_roundtrip =
  QCheck2.Test.make ~name:"L1 section encode/decode roundtrip" ~count:300
    QCheck2.Gen.(pair (int_range 0 4095) gen_attrs)
    (fun (sec, attrs) ->
       let base = sec lsl Addr.section_shift in
       Pte.decode_l1 (Pte.encode_l1 (Pte.L1_section (base, attrs)))
       = Pte.L1_section (base, attrs))

let prop_l2_roundtrip =
  QCheck2.Test.make ~name:"L2 small page roundtrip" ~count:300
    QCheck2.Gen.(triple (int_range 0 0xFFFFF) gen_ap bool)
    (fun (page, ap, global) ->
       let base = page lsl Addr.page_shift in
       Pte.decode_l2 (Pte.encode_l2 (Pte.L2_small (base, ap, global)))
       = Pte.L2_small (base, ap, global))

let prop_attr_word_roundtrip =
  QCheck2.Test.make ~name:"attr word roundtrip" ~count:300 gen_attrs
    (fun a -> Pte.attr_of_word (Pte.attr_word a) = a)

let test_l1_table_roundtrip () =
  let d = Pte.L1_table (0x12345 * 1024, 7) in
  check cb "table descriptor" true (Pte.decode_l1 (Pte.encode_l1 d) = d);
  check cb "fault is zero" true (Pte.encode_l1 Pte.L1_fault = 0l)

let test_pte_alignment_checks () =
  Alcotest.check_raises "section misaligned"
    (Invalid_argument "Pte: section base must be 1 MB aligned") (fun () ->
        ignore
          (Pte.encode_l1
             (Pte.L1_section
                (0x1234, { Pte.ap = Pte.Ap_full; domain = 0; global = false }))))

(* --- DACR --- *)

let prop_dacr_roundtrip =
  QCheck2.Test.make ~name:"DACR word roundtrip" ~count:200
    QCheck2.Gen.(list_size (return 16)
                   (oneofl [ Dacr.No_access; Dacr.Client; Dacr.Manager ]))
    (fun fields ->
       let d = Dacr.create () in
       List.iteri (Dacr.set d) fields;
       let w = Dacr.to_word d in
       let bits = function
         | Dacr.No_access -> 0b00
         | Dacr.Client -> 0b01
         | Dacr.Manager -> 0b11
       in
       List.for_all
         (fun i -> (w lsr (2 * i)) land 0b11 = bits (Dacr.get d i))
         (List.init 16 Fun.id))

let test_dacr_defaults () =
  let d = Dacr.create () in
  check cb "default no access" true (Dacr.get d 0 = Dacr.No_access);
  Dacr.set d 3 Dacr.Manager;
  check cb "set manager" true (Dacr.get d 3 = Dacr.Manager);
  Alcotest.check_raises "range check"
    (Invalid_argument "Dacr: domain out of range") (fun () ->
        ignore (Dacr.get d 16))

(* --- Frame allocator --- *)

let test_frame_alloc () =
  let fa = Frame_alloc.create ~base:0x1000 ~size:0x1000 in
  let a = Frame_alloc.alloc fa 16 in
  check ci "first at base" 0x1000 a;
  let b = Frame_alloc.alloc fa ~align:256 16 in
  check cb "aligned" true (Addr.is_aligned b 256);
  check cb "monotonic" true (b > a);
  Alcotest.check_raises "exhaustion"
    (Failure "Frame_alloc: kernel memory region exhausted") (fun () ->
        ignore (Frame_alloc.alloc fa 0x10000))

(* --- Page tables + walk --- *)

let fresh_pt () =
  let mem = Phys_mem.create () in
  let fa =
    Frame_alloc.create ~base:Address_map.kernel_data_base ~size:(1 lsl 20)
  in
  (mem, Page_table.create mem fa)

let walk mem pt virt =
  Page_table.walk ~read:(Phys_mem.read_u32 mem)
    ~root:(Page_table.root pt) ~virt

let full_user = { Pte.ap = Pte.Ap_full; domain = 2; global = false }

let test_pt_section_mapping () =
  let mem, pt = fresh_pt () in
  Page_table.map_section pt ~virt:0x0010_0000 ~phys:0x0400_0000 full_user;
  (match walk mem pt 0x0012_3456 with
   | Some (pa, attrs) ->
     check ci "translated" 0x0402_3456 pa;
     check ci "domain carried" 2 attrs.Pte.domain
   | None -> Alcotest.fail "expected mapping");
  check cb "outside faults" true (walk mem pt 0x0020_0000 = None)

let test_pt_small_page () =
  let mem, pt = fresh_pt () in
  Page_table.map_page pt ~virt:0x0030_1000 ~phys:0x0500_2000 ~domain:1
    ~ap:Pte.Ap_priv ~global:true;
  (match walk mem pt 0x0030_1ABC with
   | Some (pa, attrs) ->
     check ci "translated" 0x0500_2ABC pa;
     check ci "domain from L1" 1 attrs.Pte.domain;
     check cb "global" true attrs.Pte.global;
     check cb "ap" true (attrs.Pte.ap = Pte.Ap_priv)
   | None -> Alcotest.fail "expected mapping");
  check cb "sibling page faults" true (walk mem pt 0x0030_2000 = None);
  check ci "one L2 table" 1 (Page_table.l2_tables pt)

let test_pt_unmap () =
  let mem, pt = fresh_pt () in
  Page_table.map_page pt ~virt:0x0030_1000 ~phys:0x0500_2000 ~domain:1
    ~ap:Pte.Ap_full ~global:false;
  check cb "unmap hit" true (Page_table.unmap_page pt ~virt:0x0030_1000);
  check cb "fault after unmap" true (walk mem pt 0x0030_1000 = None);
  check cb "second unmap misses" false (Page_table.unmap_page pt ~virt:0x0030_1000)

let test_pt_domain_conflict () =
  let _, pt = fresh_pt () in
  Page_table.map_page pt ~virt:0x0030_0000 ~phys:0x0500_0000 ~domain:1
    ~ap:Pte.Ap_full ~global:false;
  Alcotest.check_raises "same slot, different domain"
    (Invalid_argument "ensure_l2: domain conflicts with existing L2 table")
    (fun () ->
       Page_table.map_page pt ~virt:0x0030_1000 ~phys:0x0500_1000 ~domain:2
         ~ap:Pte.Ap_full ~global:false)

let test_pt_section_page_conflict () =
  let _, pt = fresh_pt () in
  Page_table.map_section pt ~virt:0x0040_0000 ~phys:0x0600_0000 full_user;
  Alcotest.check_raises "page into a section slot"
    (Invalid_argument "ensure_l2: slot already holds a section mapping")
    (fun () ->
       Page_table.map_page pt ~virt:0x0040_0000 ~phys:0x0700_0000 ~domain:2
         ~ap:Pte.Ap_full ~global:false)

let test_pt_ensure_l2 () =
  let mem, pt = fresh_pt () in
  Page_table.ensure_l2 pt ~virt:0x0080_0000 ~domain:2;
  check ci "l2 allocated" 1 (Page_table.l2_tables pt);
  check cb "still a fault" true (walk mem pt 0x0080_0000 = None);
  Page_table.ensure_l2 pt ~virt:0x0080_5000 ~domain:2;
  check ci "idempotent per MB slot" 1 (Page_table.l2_tables pt)

(* A table created over frames a destroyed table left full of
   descriptors starts empty: [Phys_mem.fill] leaves alone only the
   frames its own lookup materialised, which are born zero. It touches
   the frames that storing a zero word over every table would. *)
let test_pt_recycled_frames_read_zero () =
  let mem = Phys_mem.create () in
  let fa =
    Frame_alloc.create ~base:Address_map.kernel_data_base ~size:(1 lsl 20)
  in
  let l1_word pt virt =
    Phys_mem.read_word mem (Page_table.root pt + (4 * (virt lsr 20)))
  in
  let page_sections = [ 0x0030_0000; 0x0450_0000; 0x0ff0_0000 ] in
  let pt = Page_table.create mem fa in
  for k = 0 to 4095 do
    if k mod 37 = 5 then
      Page_table.map_section pt ~virt:(k lsl 20) ~phys:0x0400_0000 full_user
  done;
  List.iter
    (fun sec ->
       for p = 0 to 255 do
         Page_table.map_page pt ~virt:(sec + (p lsl 12)) ~phys:0x0500_0000
           ~domain:1 ~ap:Pte.Ap_full ~global:false
       done)
    page_sections;
  let root = Page_table.root pt in
  let l2_bases = List.map (fun sec -> l1_word pt sec land lnot 1023) page_sections in
  let zeroed = Phys_mem.create () in
  List.iter
    (fun (base, len) ->
       for w = 0 to (len / 4) - 1 do
         Phys_mem.write_word zeroed (base + (4 * w)) 0
       done)
    ((root, 16 * 1024) :: List.map (fun b -> (b, 1024)) l2_bases);
  let frames = Phys_mem.touched_frames mem in
  check ci "frames of the first table" (Phys_mem.touched_frames zeroed) frames;
  Page_table.destroy pt;
  let pt = Page_table.create mem fa in
  check ci "root recycled" root (Page_table.root pt);
  for k = 0 to 4095 do
    if l1_word pt (k lsl 20) <> 0 then
      Alcotest.failf "L1 descriptor %d reads 0x%x" k (l1_word pt (k lsl 20))
  done;
  List.iter
    (fun sec ->
       Page_table.map_page pt ~virt:sec ~phys:0x0500_0000 ~domain:1
         ~ap:Pte.Ap_full ~global:false;
       check cb "L2 table recycled" true
         (List.mem (l1_word pt sec land lnot 1023) l2_bases);
       for p = 1 to 255 do
         if walk mem pt (sec + (p lsl 12)) <> None then
           Alcotest.failf "page 0x%x maps through a recycled L2 table"
             (sec + (p lsl 12))
       done)
    page_sections;
  check ci "no frame touched again" frames (Phys_mem.touched_frames mem)

(* --- MMU --- *)

let fresh_mmu () =
  let clock = Clock.create () in
  let mem = Phys_mem.create () in
  let hier = Hierarchy.create clock in
  let tlb = Tlb.create Tlb.cortex_a9 in
  let mmu = Mmu.create mem hier tlb in
  let fa =
    Frame_alloc.create ~base:Address_map.kernel_data_base ~size:(1 lsl 20)
  in
  let pt = Page_table.create mem fa in
  Mmu.set_ttbr mmu (Page_table.root pt);
  Mmu.set_asid mmu 1;
  (mmu, pt, clock)

let test_mmu_translate_and_tlb () =
  let mmu, pt, _ = fresh_mmu () in
  Dacr.set (Mmu.dacr mmu) 2 Dacr.Client;
  Page_table.map_section pt ~virt:0x0010_0000 ~phys:0x0400_0000 full_user;
  (match Mmu.translate mmu Mmu.Read ~priv:false 0x0010_0044 with
   | Ok pa -> check ci "translate" 0x0400_0044 pa
   | Error _ -> Alcotest.fail "unexpected fault");
  let tlb = Mmu.tlb mmu in
  let misses_before = Tlb.misses tlb in
  ignore (Mmu.translate mmu Mmu.Read ~priv:false 0x0010_0048);
  check ci "second access is a TLB hit" misses_before (Tlb.misses tlb)

let test_mmu_faults () =
  let mmu, pt, _ = fresh_mmu () in
  let dacr = Mmu.dacr mmu in
  Dacr.set dacr 2 Dacr.Client;
  Dacr.set dacr 1 Dacr.No_access;
  Page_table.map_section pt ~virt:0x0010_0000 ~phys:0x0400_0000 full_user;
  Page_table.map_section pt ~virt:0x0020_0000 ~phys:0x0500_0000
    { Pte.ap = Pte.Ap_priv; domain = 2; global = false };
  Page_table.map_section pt ~virt:0x0030_0000 ~phys:0x0600_0000
    { Pte.ap = Pte.Ap_full; domain = 1; global = false };
  (match Mmu.translate mmu Mmu.Read ~priv:false 0x0099_0000 with
   | Error (Mmu.Translation_fault _) -> ()
   | _ -> Alcotest.fail "expected translation fault");
  (match Mmu.translate mmu Mmu.Read ~priv:false 0x0020_0000 with
   | Error (Mmu.Permission_fault _) -> ()
   | _ -> Alcotest.fail "expected permission fault (user on priv page)");
  (match Mmu.translate mmu Mmu.Read ~priv:true 0x0020_0000 with
   | Ok _ -> ()
   | _ -> Alcotest.fail "privileged access should pass");
  (match Mmu.translate mmu Mmu.Read ~priv:true 0x0030_0000 with
   | Error (Mmu.Domain_fault (_, 1)) -> ()
   | _ -> Alcotest.fail "expected domain fault")

let test_mmu_dacr_flip () =
  (* The paper's guest-kernel protection: domain 1 flips between
     Client and No_access as the guest changes mode (Table II). *)
  let mmu, pt, _ = fresh_mmu () in
  let dacr = Mmu.dacr mmu in
  Page_table.map_section pt ~virt:0x0000_0000 ~phys:0x0400_0000
    { Pte.ap = Pte.Ap_full; domain = 1; global = false };
  Dacr.set dacr 1 Dacr.Client;
  check cb "guest kernel mode: accessible" true
    (Result.is_ok (Mmu.translate mmu Mmu.Read ~priv:false 0x0000_0100));
  Dacr.set dacr 1 Dacr.No_access;
  (match Mmu.translate mmu Mmu.Read ~priv:false 0x0000_0100 with
   | Error (Mmu.Domain_fault _) -> ()
   | _ -> Alcotest.fail "guest user mode: must fault");
  Dacr.set dacr 1 Dacr.Manager;
  check cb "manager skips AP" true
    (Result.is_ok (Mmu.translate mmu Mmu.Write ~priv:false 0x0000_0100))

let test_mmu_asid_separation () =
  let mmu, pt, _ = fresh_mmu () in
  Dacr.set (Mmu.dacr mmu) 2 Dacr.Client;
  Page_table.map_section pt ~virt:0x0010_0000 ~phys:0x0400_0000 full_user;
  ignore (Mmu.translate mmu Mmu.Read ~priv:false 0x0010_0000);
  (* Switch ASID without switching tables: stale TLB entry must not
     leak across; the walk still succeeds but counts a miss. *)
  Mmu.set_asid mmu 2;
  let misses = Tlb.misses (Mmu.tlb mmu) in
  ignore (Mmu.translate mmu Mmu.Read ~priv:false 0x0010_0000);
  check ci "new ASID misses the TLB" (misses + 1) (Tlb.misses (Mmu.tlb mmu))

let test_mmu_walk_charges_time () =
  let mmu, pt, clock = fresh_mmu () in
  Dacr.set (Mmu.dacr mmu) 2 Dacr.Client;
  Page_table.map_page pt ~virt:0x0010_1000 ~phys:0x0400_0000 ~domain:2
    ~ap:Pte.Ap_full ~global:false;
  let t0 = Clock.now clock in
  ignore (Mmu.translate mmu Mmu.Read ~priv:false 0x0010_1000);
  let walk_cost = Clock.now clock - t0 in
  check cb "two-level walk costs memory accesses" true (walk_cost > 0);
  let t1 = Clock.now clock in
  ignore (Mmu.translate mmu Mmu.Read ~priv:false 0x0010_1000);
  check ci "TLB hit walks nothing" 0 (Clock.now clock - t1)

(* On a TLB hit [translate_exn] checks permissions from the entry's
   attribute word; it must agree with [translate]'s decoded check for
   every domain state, AP and privilege, including the refusals. *)
let prop_translate_exn_hit_is_translate =
  QCheck2.Test.make ~count:300 ~name:"mmu translate_exn hit = translate"
    QCheck2.Gen.(
      triple
        (oneofl [ Dacr.No_access; Dacr.Client; Dacr.Manager ])
        gen_ap bool)
    (fun (access, ap, priv) ->
       let mmu, pt, _ = fresh_mmu () in
       let dacr = Mmu.dacr mmu in
       Page_table.map_page pt ~virt:0x0010_1000 ~phys:0x0400_0000 ~domain:3
         ~ap ~global:false;
       (* Install the entry under a DACR that allows anything. *)
       Dacr.set dacr 3 Dacr.Manager;
       ignore (Mmu.translate mmu Mmu.Read ~priv:true 0x0010_1000);
       Dacr.set dacr 3 access;
       let tlb = Mmu.tlb mmu in
       let hits = Tlb.hits tlb in
       let reference = Mmu.translate mmu Mmu.Read ~priv 0x0010_1234 in
       let fast =
         match Mmu.translate_exn mmu Mmu.Read ~priv 0x0010_1234 with
         | pa -> Ok pa
         | exception Mmu.Fault f -> Error f
       in
       reference = fast && Tlb.hits tlb = hits + 2)

(* A TLB-hit translation allocates nothing. *)
let test_translate_exn_hit_allocates_nothing () =
  let mmu, pt, _ = fresh_mmu () in
  Dacr.set (Mmu.dacr mmu) 2 Dacr.Client;
  for p = 0 to 15 do
    Page_table.map_page pt ~virt:(0x0010_0000 + (p lsl Addr.page_shift))
      ~phys:(0x0400_0000 + (p lsl Addr.page_shift)) ~domain:2
      ~ap:Pte.Ap_full ~global:false;
    ignore (Mmu.translate_exn mmu Mmu.Read ~priv:false
              (0x0010_0000 + (p lsl Addr.page_shift)))
  done;
  let misses = Tlb.misses (Mmu.tlb mmu) in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let va = 0x0010_0000 + ((i land 15) lsl Addr.page_shift) + (i land 0xffc) in
    sum := !sum + Mmu.translate_exn mmu Mmu.Read ~priv:false va
  done;
  let words = Gc.minor_words () -. before in
  check ci "every call hit" misses (Tlb.misses (Mmu.tlb mmu));
  check cb "translated" true (!sum > 0);
  check (Alcotest.float 0.) "minor words over 10k hits" 0. words

(* Mapping and unmapping an interface page under an existing L2 table
   (each ABI v1 request and release) allocates nothing. *)
let test_pt_map_unmap_allocates_nothing () =
  let _, pt = fresh_pt () in
  Page_table.ensure_l2 pt ~virt:0x0030_0000 ~domain:1;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let virt = 0x0030_0000 + ((i land 255) lsl Addr.page_shift) in
    Page_table.map_page pt ~virt ~phys:(0x0500_0000 + (i lsl Addr.page_shift))
      ~domain:1 ~ap:Pte.Ap_full ~global:false;
    if Page_table.unmap_page pt ~virt then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check ci "every unmap hit" 10_000 !hits;
  check ci "one L2 table" 1 (Page_table.l2_tables pt);
  check (Alcotest.float 0.) "minor words over 10k map/unmap pairs" 0. words

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "mmu",
    [ QCheck_alcotest.to_alcotest prop_l1_section_roundtrip;
      QCheck_alcotest.to_alcotest prop_l2_roundtrip;
      QCheck_alcotest.to_alcotest prop_attr_word_roundtrip;
      t "l1 table roundtrip" test_l1_table_roundtrip;
      t "pte alignment" test_pte_alignment_checks;
      QCheck_alcotest.to_alcotest prop_dacr_roundtrip;
      t "dacr defaults" test_dacr_defaults;
      t "frame alloc" test_frame_alloc;
      t "pt section mapping" test_pt_section_mapping;
      t "pt small page" test_pt_small_page;
      t "pt unmap" test_pt_unmap;
      t "pt domain conflict" test_pt_domain_conflict;
      t "pt section/page conflict" test_pt_section_page_conflict;
      t "pt ensure_l2" test_pt_ensure_l2;
      t "a page table over recycled frames reads zero"
        test_pt_recycled_frames_read_zero;
      t "pt map/unmap allocates nothing" test_pt_map_unmap_allocates_nothing;
      t "mmu translate + tlb" test_mmu_translate_and_tlb;
      t "mmu faults" test_mmu_faults;
      t "mmu dacr flip" test_mmu_dacr_flip;
      t "mmu asid separation" test_mmu_asid_separation;
      t "mmu walk cost" test_mmu_walk_charges_time;
      QCheck_alcotest.to_alcotest prop_translate_exn_hit_is_translate;
      t "translate_exn hit allocates nothing"
        test_translate_exn_hit_allocates_nothing ] )
