(* Frames are keyed by page number. A specialised int table avoids the
   polymorphic hash and compare of the generic one; the mix folds the
   high product bits into the low ones the bucket index is taken from,
   so pages at large power-of-two strides (one window per guest) still
   spread over the buckets. *)
module Frames = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b

    let hash (p : int) =
      let h = p * 0x9E3779B1 in
      (h lxor (h lsr 17)) land max_int
  end)

(* [last_page]/[last_frame] memoise the most recent lookup. Frames are
   never freed, so the memo cannot go stale. *)
type t = {
  frames : Bytes.t Frames.t;
  mutable last_page : int;
  mutable last_frame : Bytes.t;
}

let create () =
  { frames = Frames.create 1024; last_page = -1; last_frame = Bytes.empty }

let frame m a =
  let p = Addr.page_of a in
  if p = m.last_page then m.last_frame
  else begin
    let b =
      match Frames.find m.frames p with
      | b -> b
      | exception Not_found ->
        let b = Bytes.make Addr.page_size '\000' in
        Frames.add m.frames p b;
        b
    in
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

let read_u32 m a = Int32.of_int (read_word m a)
let write_u32 m a v = write_word m a (Int32.to_int v)

let read_u16 m a =
  let b0 = read_u8 m a and b1 = read_u8 m (a + 1) in
  b0 lor (b1 lsl 8)

let write_u16 m a v =
  write_u8 m a v;
  write_u8 m (a + 1) (v lsr 8)

let read_f32 m a = Int32.float_of_bits (Int32.of_int (read_word m a))
let write_f32 m a v = write_word m a (Int32.to_int (Int32.bits_of_float v))

let read_bytes m a len =
  let out = Bytes.create len in
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.blit (frame m addr) off out pos n;
      loop (pos + n)
    end
  in
  loop 0;
  out

let write_bytes m a src =
  let len = Bytes.length src in
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.blit src pos (frame m addr) off n;
      loop (pos + n)
    end
  in
  loop 0

let blit m ~src ~dst ~len = write_bytes m dst (read_bytes m src len)

let fill m a len v =
  let rec loop pos =
    if pos < len then begin
      let addr = a + pos in
      let off = Addr.page_offset addr in
      let n = min (len - pos) (Addr.page_size - off) in
      Bytes.fill (frame m addr) off n (Char.chr (v land 0xff));
      loop (pos + n)
    end
  in
  loop 0

let touched_frames m = Frames.length m.frames
