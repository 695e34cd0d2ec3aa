(* Frames are found through a three-level page table, so a lookup is
   three array loads and no hashing: a fixed root of [root_slots]
   entries over the 36-bit (LPAE) physical space, mid tables of
   [mid_slots] leaves, and leaves of [leaf_pages] frames. An absent
   frame is the shared [Bytes.empty], an absent leaf the shared
   [no_leaf] and an absent mid table the shared [no_mid], so an
   untouched page costs nothing and a lookup needs one bounds test.
   Small tables keep a sparse layout cheap: one 16 MB window per
   guest and a second bank above 4 GB touch a few mid tables and
   small leaves, where one flat directory would span the gap. *)
let leaf_bits = 6
let mid_bits = 8
let leaf_pages = 1 lsl leaf_bits
let mid_slots = 1 lsl mid_bits
let root_shift = leaf_bits + mid_bits
let root_slots = 1 lsl (36 - Addr.page_shift - root_shift)

let no_leaf : Bytes.t array = Array.make leaf_pages Bytes.empty
let no_mid : Bytes.t array array = Array.make mid_slots no_leaf

(* [last_page]/[last_frame] memoise the most recent lookup. Frames are
   never freed, so the memo cannot go stale. *)
type t = {
  root : Bytes.t array array array;
  mutable frames : int;
  mutable last_page : int;
  mutable last_frame : Bytes.t;
}

let create () =
  { root = Array.make root_slots no_mid; frames = 0; last_page = -1;
    last_frame = Bytes.empty }

let materialise m p =
  let r = p lsr root_shift in
  if r >= root_slots then
    invalid_arg
      (Printf.sprintf "Phys_mem: page 0x%x outside the 36-bit physical space" p);
  let mid =
    let t = m.root.(r) in
    if t != no_mid then t
    else begin
      let t = Array.make mid_slots no_leaf in
      m.root.(r) <- t;
      t
    end
  in
  let j = (p lsr leaf_bits) land (mid_slots - 1) in
  let leaf =
    let l = mid.(j) in
    if l != no_leaf then l
    else begin
      let l = Array.make leaf_pages Bytes.empty in
      mid.(j) <- l;
      l
    end
  in
  let b = Bytes.make Addr.page_size '\000' in
  leaf.(p land (leaf_pages - 1)) <- b;
  m.frames <- m.frames + 1;
  b

let lookup m p =
  let r = p lsr root_shift in
  if r < root_slots then begin
    let mid = Array.unsafe_get m.root r in
    let leaf =
      Array.unsafe_get mid ((p lsr leaf_bits) land (mid_slots - 1))
    in
    let b = Array.unsafe_get leaf (p land (leaf_pages - 1)) in
    if b != Bytes.empty then b else materialise m p
  end
  else materialise m p

let frame m a =
  let p = Addr.page_of a in
  if p = m.last_page then m.last_frame
  else begin
    let b = lookup m p in
    m.last_page <- p;
    m.last_frame <- b;
    b
  end

let read_u8 m a = Char.code (Bytes.get (frame m a) (Addr.page_offset a))

let write_u8 m a v =
  Bytes.set (frame m a) (Addr.page_offset a) (Char.chr (v land 0xff))

(* Word accessors move the value as an unsigned 32-bit [int]; only a
   frame-straddling word falls back to the byte path. *)
let read_word m a =
  let off = Addr.page_offset a in
  if off <= Addr.page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (frame m a) off) land 0xFFFF_FFFF
  else
    read_u8 m a
    lor (read_u8 m (a + 1) lsl 8)
    lor (read_u8 m (a + 2) lsl 16)
    lor (read_u8 m (a + 3) lsl 24)

let write_word m a v =
  let off = Addr.page_offset a in
  if off <= Addr.page_size - 4 then
    Bytes.set_int32_le (frame m a) off (Int32.of_int v)
  else begin
    write_u8 m a v;
    write_u8 m (a + 1) (v lsr 8);
    write_u8 m (a + 2) (v lsr 16);
    write_u8 m (a + 3) (v lsr 24)
  end

(* A run inside one frame finds the frame once and moves its words
   straight out of (into) the [Bytes]; a run that crosses a frame
   boundary takes the per-word path. *)
let check_run buf off n =
  if off < 0 || n < 0 || off + n > Array.length buf then
    invalid_arg "Phys_mem: word run outside the buffer"

let read_words m a buf off n =
  check_run buf off n;
  let o = Addr.page_offset a in
  if n > 0 && o + (4 * n) <= Addr.page_size then begin
    let b = frame m a in
    for k = 0 to n - 1 do
      Array.unsafe_set buf (off + k)
        (Int32.to_int (Bytes.get_int32_le b (o + (4 * k))) land 0xFFFF_FFFF)
    done
  end
  else
    for k = 0 to n - 1 do
      Array.unsafe_set buf (off + k) (read_word m (a + (4 * k)))
    done

let write_words m a buf off n =
  check_run buf off n;
  let o = Addr.page_offset a in
  if n > 0 && o + (4 * n) <= Addr.page_size then begin
    let b = frame m a in
    for k = 0 to n - 1 do
      Bytes.set_int32_le b (o + (4 * k))
        (Int32.of_int (Array.unsafe_get buf (off + k)))
    done
  end
  else
    for k = 0 to n - 1 do
      write_word m (a + (4 * k)) (Array.unsafe_get buf (off + k))
    done

let read_u32 m a = Int32.of_int (read_word m a)
let write_u32 m a v = write_word m a (Int32.to_int v)

let read_f32 m a = Int32.float_of_bits (Int32.of_int (read_word m a))
let write_f32 m a v = write_word m a (Int32.to_int (Int32.bits_of_float v))

(* A frame that this fill's own lookup materialised is born zero, so a
   zero fill leaves it as it is; a frame touched before (a recycled
   page-table frame, say) is zeroed as always. *)
let fill m a len v =
  let c = Char.chr (v land 0xff) in
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = Int.min (len - pos) (Addr.page_size - off) in
      let frames = m.frames in
      let b = frame m addr in
      if c <> '\000' || m.frames = frames then Bytes.fill b off n c;
      loop (pos + n)
    end
  in
  loop 0

let touched_frames m = m.frames
