type ap = Ap_none | Ap_priv | Ap_full

type attrs = { ap : ap; domain : int; global : bool }

type l1 =
  | L1_fault
  | L1_table of Addr.t * int
  | L1_section of Addr.t * attrs

type l2 =
  | L2_fault
  | L2_small of Addr.t * ap * bool

(* Word layouts (bits):
   L1 table:   [31:10] L2 base | [8:5] domain | [1:0]=01
   L1 section: [31:20] base | [17] global | [15:12] base[35:32]
               | [11:10] AP | [8:5] domain | [1:0]=10
   L2 small:   [31:12] base | [11] global | [9:6] base[35:32]
               | [5:4] AP | [1:0]=10

   Sections and small pages carry LPAE-style extended base bits
   (PA[35:32], packed into bits the simplified layout leaves free) so
   guest windows can live in the high DDR bank above 4 GB while the
   descriptor word stays 32 bits. L2 table frames come from the
   kernel's frame allocator, which sits below 4 GB, so the L1 table
   descriptor keeps its plain 32-bit base. *)

let ext_base_max = 1 lsl 36

let check_ext_base what base =
  if base < 0 || base >= ext_base_max then
    invalid_arg (Printf.sprintf "Pte: %s base beyond 36-bit physical" what)

let ap_bits = function Ap_none -> 0 | Ap_priv -> 1 | Ap_full -> 3

let ap_of_bits = function
  | 0 -> Ap_none
  | 1 -> Ap_priv
  | 3 -> Ap_full
  | b -> invalid_arg (Printf.sprintf "Pte: reserved AP encoding %d" b)

let check_domain d =
  if d < 0 || d > 15 then invalid_arg "Pte: domain out of range"

let to_i32 v = Int32.of_int v
let of_i32 w = Int32.to_int (Int32.logand w 0xFFFFFFFFl) land 0xFFFFFFFF

let encode_l1 = function
  | L1_fault -> 0l
  | L1_table (base, domain) ->
    check_domain domain;
    if not (Addr.is_aligned base 1024) then
      invalid_arg "Pte: L2 table base must be 1 KB aligned";
    if base lsr 32 <> 0 then
      invalid_arg "Pte: L2 table base must lie below 4 GB";
    to_i32 (base lor (domain lsl 5) lor 0b01)
  | L1_section (base, a) ->
    check_domain a.domain;
    if not (Addr.is_aligned base Addr.section_size) then
      invalid_arg "Pte: section base must be 1 MB aligned";
    check_ext_base "section" base;
    to_i32
      (base land 0xFFF0_0000
       lor ((base lsr 32) lsl 12)
       lor (if a.global then 1 lsl 17 else 0)
       lor (ap_bits a.ap lsl 10)
       lor (a.domain lsl 5)
       lor 0b10)

let section_base v =
  ignore (ap_of_bits ((v lsr 10) land 0b11));
  (v land 0xFFF0_0000) lor (((v lsr 12) land 0xF) lsl 32)

let small_base v =
  ignore (ap_of_bits ((v lsr 4) land 0b11));
  (v land 0xFFFF_F000) lor (((v lsr 6) land 0xF) lsl 32)

let decode_l1 w =
  let v = of_i32 w in
  match v land 0b11 with
  | 0b00 -> L1_fault
  | 0b01 -> L1_table (v land lnot 1023, (v lsr 5) land 0xf)
  | 0b10 ->
    L1_section
      (section_base v,
       { ap = ap_of_bits ((v lsr 10) land 0b11);
         domain = (v lsr 5) land 0xf;
         global = (v lsr 17) land 1 = 1 })
  | _ -> invalid_arg "Pte.decode_l1: reserved descriptor type"

let small_word base ap global =
  if not (Addr.is_aligned base Addr.page_size) then
    invalid_arg "Pte: small page base must be 4 KB aligned";
  check_ext_base "small page" base;
  base land 0xFFFF_F000
  lor ((base lsr 32) lsl 6)
  lor (if global then 1 lsl 11 else 0)
  lor (ap_bits ap lsl 4)
  lor 0b10

let encode_l2 = function
  | L2_fault -> 0l
  | L2_small (base, ap, global) -> to_i32 (small_word base ap global)

let decode_l2 w =
  let v = of_i32 w in
  match v land 0b11 with
  | 0b00 -> L2_fault
  | 0b10 ->
    L2_small
      (small_base v,
       ap_of_bits ((v lsr 4) land 0b11),
       (v lsr 11) land 1 = 1)
  | _ -> invalid_arg "Pte.decode_l2: reserved descriptor type"

let attr_word a =
  check_domain a.domain;
  ap_bits a.ap lor (a.domain lsl 2) lor (if a.global then 1 lsl 6 else 0)

let attr_of_word w =
  { ap = ap_of_bits (w land 0b11);
    domain = (w lsr 2) land 0xf;
    global = (w lsr 6) land 1 = 1 }
