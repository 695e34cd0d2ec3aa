(* Tests for addresses and simulated physical memory. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_addr_geometry () =
  check ci "page size" 4096 Addr.page_size;
  check ci "section size" (1 lsl 20) Addr.section_size;
  check ci "line size" 32 Addr.line_size;
  check ci "page base" 0x1000 (Addr.page_base 0x1ABC);
  check ci "page offset" 0xABC (Addr.page_offset 0x1ABC);
  check ci "page number" 1 (Addr.page_of 0x1ABC);
  check ci "section base" 0x0030_0000 (Addr.section_base 0x0031_2345);
  check ci "line base" 0x1AA0 (Addr.line_base 0x1ABC)

let test_addr_align () =
  check cb "aligned" true (Addr.is_aligned 0x2000 4096);
  check cb "not aligned" false (Addr.is_aligned 0x2001 4096);
  check ci "align_up exact" 0x2000 (Addr.align_up 0x2000 4096);
  check ci "align_up bump" 0x3000 (Addr.align_up 0x2001 4096)

let prop_align_up =
  QCheck2.Test.make ~name:"align_up is aligned and minimal" ~count:500
    QCheck2.Gen.(pair (int_range 0 0xFFFFFF) (int_range 0 12))
    (fun (a, k) ->
       let n = 1 lsl k in
       let r = Addr.align_up a n in
       Addr.is_aligned r n && r >= a && r - a < n)

let test_mem_bytes () =
  let m = Phys_mem.create () in
  Phys_mem.write_u8 m 0x100 0xAB;
  check ci "u8 roundtrip" 0xAB (Phys_mem.read_u8 m 0x100);
  check ci "untouched is zero" 0 (Phys_mem.read_u8 m 0x101);
  Phys_mem.write_u8 m 0x100 0x1FF;
  check ci "u8 masked to a byte" 0xFF (Phys_mem.read_u8 m 0x100)

let test_mem_u32 () =
  let m = Phys_mem.create () in
  Phys_mem.write_u32 m 0x200 0xDEADBEEFl;
  check (Alcotest.int32) "u32 roundtrip" 0xDEADBEEFl (Phys_mem.read_u32 m 0x200);
  (* little-endian byte order *)
  check ci "LE low byte" 0xEF (Phys_mem.read_u8 m 0x200);
  check ci "LE high byte" 0xDE (Phys_mem.read_u8 m 0x203)

let test_mem_u32_straddle () =
  let m = Phys_mem.create () in
  let a = Addr.page_size - 2 in
  Phys_mem.write_u32 m a 0x11223344l;
  check (Alcotest.int32) "straddling page boundary" 0x11223344l
    (Phys_mem.read_u32 m a)

let test_mem_f32 () =
  let m = Phys_mem.create () in
  Phys_mem.write_f32 m 0x300 3.25;
  check (Alcotest.float 0.0) "exact f32" 3.25 (Phys_mem.read_f32 m 0x300);
  Phys_mem.write_f32 m 0x304 0.1;
  check (Alcotest.float 1e-7) "f32 rounding" 0.1 (Phys_mem.read_f32 m 0x304)

let test_mem_blocks () =
  let m = Phys_mem.create () in
  let a = Addr.page_size - 3 in
  Phys_mem.write_word m (a + 3) 0x6F6C6C65;
  Phys_mem.fill m a 5 (Char.code 'x');
  check Alcotest.string "fill across pages" "xxxxxlo"
    (String.init 7 (fun i -> Char.chr (Phys_mem.read_u8 m (a + i))))

let test_mem_sparse () =
  let m = Phys_mem.create () in
  check ci "fresh memory has no frames" 0 (Phys_mem.touched_frames m);
  Phys_mem.write_u8 m 0x0 1;
  Phys_mem.write_u8 m (512 * 1024 * 1024) 1;
  check ci "only touched frames materialise" 2 (Phys_mem.touched_frames m)

(* Bases for the word tests: low DDR, the high DDR bank above 4 GB and
   the top of the 2^36 LPAE window. *)
let word_bases =
  [ 0x10_0000; Address_map.ddr_high_base + (3 * Addr.page_size);
    (1 lsl 36) - (2 * Addr.page_size) ]

let bytes_of_word m a =
  List.init 4 (fun i -> Phys_mem.read_u8 m (a + i))

let test_mem_word_page_tail () =
  List.iter
    (fun base ->
       for off = Addr.page_size - 4 to Addr.page_size - 1 do
         let a = base + off in
         let name s = Printf.sprintf "%s at 0x%x" s a in
         let m = Phys_mem.create () in
         let v = 0xF1E2D3C4 lxor (off lsl 8) in
         Phys_mem.write_word m a v;
         check ci (name "word roundtrip") v (Phys_mem.read_word m a);
         check (Alcotest.list ci) (name "word path = byte path")
           (List.init 4 (fun i -> (v lsr (8 * i)) land 0xFF))
           (bytes_of_word m a);
         List.iteri (fun i b -> Phys_mem.write_u8 m (a + i) (b lxor 0x5A))
           (bytes_of_word m a);
         check ci (name "bytes read back as a word") (v lxor 0x5A5A5A5A)
           (Phys_mem.read_word m a);
         check (Alcotest.int32) (name "u32 view")
           (Int32.of_int (v lxor 0x5A5A5A5A)) (Phys_mem.read_u32 m a)
       done)
    word_bases

let test_mem_word_unsigned () =
  let m = Phys_mem.create () in
  Phys_mem.write_word m 0x400 (-1);
  check ci "low 32 bits stored, read unsigned" 0xFFFF_FFFF
    (Phys_mem.read_word m 0x400);
  Phys_mem.write_u32 m 0x404 0x8000_0000l;
  check ci "a negative int32 reads as its unsigned value" 0x8000_0000
    (Phys_mem.read_word m 0x404);
  Phys_mem.write_word m 0x408 0x1_2345_6789;
  check ci "bits above 31 are dropped" 0x2345_6789 (Phys_mem.read_word m 0x408);
  check ci "neighbour untouched" 0 (Phys_mem.read_word m 0x40C)

let test_mem_word_frames () =
  let m = Phys_mem.create () in
  let hi = Address_map.ddr_high_base in
  ignore (Phys_mem.read_word m 0x2000);
  check ci "a read materialises its frame" 1 (Phys_mem.touched_frames m);
  Phys_mem.write_word m 0x2004 7;
  ignore (Phys_mem.read_word m hi);
  check ci "high-bank frame is a frame of its own" 2
    (Phys_mem.touched_frames m);
  check ci "high bank does not alias low DDR" 0
    (Phys_mem.read_word m (hi + 0x2004 - 0x2000));
  Phys_mem.write_word m (0x3000 - 2) 0xAABBCCDD;
  check ci "a straddling word touches both frames" 3
    (Phys_mem.touched_frames m);
  check ci "low word still there" 7 (Phys_mem.read_word m 0x2004)

let prop_u32_roundtrip =
  QCheck2.Test.make ~name:"u32 write/read roundtrip" ~count:300
    QCheck2.Gen.(pair (int_range 0 0xFFFFF) ui32)
    (fun (a, v) ->
       let m = Phys_mem.create () in
       Phys_mem.write_u32 m a v;
       Phys_mem.read_u32 m a = v)

(* Frame lookup over a sparse, high layout: one page in every guest
   window (the low bank and the bank above 4 GB), page 0 and the last
   page of the 36-bit space, each written with a word at a random
   offset and a word straddling into the next frame. Every byte must
   read back as a reference map says, and exactly the frames touched
   (by writes or reads) must exist. *)
let prop_frames_sparse_high =
  let page_size = Addr.page_size in
  (* Its straddling word ends in the last page of the space. *)
  let top = (1 lsl 36) - (2 * page_size) in
  QCheck2.Test.make ~name:"sparse high frames read back exactly" ~count:40
    QCheck2.Gen.(pair (int_bound 4095) (int_bound (page_size - 5)))
    (fun (page, off) ->
       let m = Phys_mem.create () in
       let bytes = Hashtbl.create 4096 in
       let pages = Hashtbl.create 1024 in
       let touch a = Hashtbl.replace pages (Addr.page_of a) () in
       let write a v =
         Phys_mem.write_word m a v;
         for i = 0 to 3 do
           touch (a + i);
           Hashtbl.replace bytes (a + i) ((v lsr (8 * i)) land 0xFF)
         done
       in
       let bases =
         0 :: top
         :: List.init Address_map.guest_slot_count (fun i ->
             Address_map.guest_phys_base i + (((page + i) land 4095) * page_size))
       in
       List.iteri
         (fun i base ->
            write (base + off) (0x1000_0000 + i);
            (* Straddles into the next frame: bytes on both sides. *)
            write (base + page_size - 2) (0xA5A5_0000 lor i))
         bases;
       (* A read of an untouched frame reads zero and materialises it. *)
       let untouched = Address_map.ddr_high_base - page_size in
       touch untouched;
       let zero = Phys_mem.read_word m untouched = 0 in
       zero
       && Hashtbl.fold
            (fun a v ok -> ok && Phys_mem.read_u8 m a = v)
            bytes true
       && List.for_all
            (fun base ->
               let a = base + page_size - 2 in
               Phys_mem.read_word m a
               = List.fold_left
                   (fun w i -> w lor (Hashtbl.find bytes (a + i) lsl (8 * i)))
                   0 [ 0; 1; 2; 3 ])
            bases
       && Phys_mem.touched_frames m = Hashtbl.length pages)

(* Word runs move exactly what the per-word accessors move, and touch
   the same frames, for runs that start next to a page end: inside one
   frame, ending on its last byte, or crossing into the next one
   (aligned or not). *)
let prop_word_runs_equal_words =
  QCheck2.Test.make ~name:"word runs = per-word read/write near a page end"
    ~count:300
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      pair (int_range 0 64)
        (list_size (int_range 0 24) (int_bound 0xFFFF_FFFF)))
    (fun (back, vals) ->
       let a = 0x0030_0000 + Addr.page_size - back in
       let src = Array.of_list vals in
       let n = Array.length src in
       let runs = Phys_mem.create () and words = Phys_mem.create () in
       Phys_mem.write_words runs a src 0 n;
       Array.iteri (fun k v -> Phys_mem.write_word words (a + (4 * k)) v) src;
       let got = Array.make (n + 2) (-1) in
       Phys_mem.read_words runs a got 1 n;
       let fresh = Phys_mem.create () and fresh_words = Phys_mem.create () in
       let zeros = Array.make (n + 2) (-1) in
       Phys_mem.read_words fresh (a - 4) zeros 2 n;
       for k = 0 to n - 1 do
         ignore (Phys_mem.read_word fresh_words (a - 4 + (4 * k)))
       done;
       Array.sub got 1 n
       = Array.init n (fun k -> Phys_mem.read_word words (a + (4 * k)))
       && got.(0) = -1 && got.(n + 1) = -1
       && Array.sub zeros 2 n = Array.make n 0
       && Phys_mem.touched_frames runs = Phys_mem.touched_frames words
       && Phys_mem.touched_frames fresh = Phys_mem.touched_frames fresh_words)

let test_mem_outside_space () =
  let m = Phys_mem.create () in
  Alcotest.check_raises "past the 36-bit space"
    (Invalid_argument
       (Printf.sprintf "Phys_mem: page 0x%x outside the 36-bit physical space"
          (1 lsl 24)))
    (fun () -> ignore (Phys_mem.read_word m (1 lsl 36)));
  check ci "a refused access materialises nothing" 0
    (Phys_mem.touched_frames m)

let test_address_map_sanity () =
  check cb "guest regions are disjoint" true
    (Address_map.guest_phys_base 1
     >= Address_map.guest_phys_base 0 + Address_map.guest_phys_size);
  check cb "bitstream store below guests" true
    (Address_map.bitstream_store_base + Address_map.bitstream_store_size
     <= Address_map.guest_phys_base 0);
  check cb "kernel data below bitstream store" true
    (Address_map.kernel_data_base + Address_map.kernel_data_size
     <= Address_map.bitstream_store_base)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "mem",
    [ t "addr geometry" test_addr_geometry;
      t "addr align" test_addr_align;
      QCheck_alcotest.to_alcotest prop_align_up;
      t "bytes" test_mem_bytes;
      t "u32" test_mem_u32;
      t "u32 straddle" test_mem_u32_straddle;
      t "f32" test_mem_f32;
      t "blocks" test_mem_blocks;
      t "sparse" test_mem_sparse;
      t "word at page tail offsets" test_mem_word_page_tail;
      t "word is unsigned 32-bit" test_mem_word_unsigned;
      t "word frame accounting" test_mem_word_frames;
      QCheck_alcotest.to_alcotest prop_u32_roundtrip;
      QCheck_alcotest.to_alcotest prop_frames_sparse_high;
      QCheck_alcotest.to_alcotest prop_word_runs_equal_words;
      t "access outside the physical space" test_mem_outside_space;
      t "address map sanity" test_address_map_sanity ] )
