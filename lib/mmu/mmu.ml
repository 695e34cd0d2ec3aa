type access = Exec | Read | Write

type fault =
  | Translation_fault of Addr.t
  | Domain_fault of Addr.t * int
  | Permission_fault of Addr.t

exception Fault of fault

type t = {
  mem : Phys_mem.t;
  hier : Hierarchy.t;
  tlb : Tlb.t;
  dacr : Dacr.t;
  mutable ttbr : Addr.t;
  mutable asid : int;
}

let create mem hier tlb =
  { mem; hier; tlb; dacr = Dacr.create (); ttbr = 0; asid = 0 }

let set_ttbr t v = t.ttbr <- v
let ttbr t = t.ttbr

let set_asid t v =
  if v < 0 || v > 255 then invalid_arg "Mmu.set_asid: ASID out of range";
  t.asid <- v

let asid t = t.asid
let dacr t = t.dacr
let tlb t = t.tlb

(* Permission check shared by the hit and miss paths. *)
let check t ~virt ~priv (attrs : Pte.attrs) =
  match Dacr.get t.dacr attrs.domain with
  | Dacr.No_access -> Error (Domain_fault (virt, attrs.domain))
  | Dacr.Manager -> Ok ()
  | Dacr.Client ->
    (match attrs.ap with
     | Pte.Ap_none -> Error (Permission_fault virt)
     | Pte.Ap_priv -> if priv then Ok () else Error (Permission_fault virt)
     | Pte.Ap_full -> Ok ())

(* [check] read straight from a TLB entry's attribute word
   ([Pte.attr_word] layout: AP in bits 1:0, domain in bits 5:2): true
   when the access is allowed. A word [check] refuses, or one whose AP
   field [Pte.attr_of_word] rejects, answers false, and the caller
   decodes it the reference way. *)
let word_allows t ~priv w =
  let ap = w land 0b11 in
  ap <> 2
  &&
  match Dacr.get t.dacr ((w lsr 2) land 0xf) with
  | Dacr.No_access -> false
  | Dacr.Manager -> true
  | Dacr.Client -> ap = 3 || (ap = 1 && priv)

let page_addr ppage virt =
  (ppage lsl Addr.page_shift) lor (virt land (Addr.page_size - 1))

let hit t ~priv virt (e : Tlb.entry) =
  let attrs = Pte.attr_of_word e.Tlb.word in
  match check t ~virt ~priv attrs with
  | Ok () -> Ok (page_addr e.Tlb.ppage virt)
  | Error f -> Error f

(* Hardware walk: descriptor reads are normal cached loads. *)
let miss t ~priv virt =
  let read a =
    ignore (Hierarchy.access t.hier Hierarchy.Load a);
    Phys_mem.read_u32 t.mem a
  in
  match Page_table.walk ~read ~root:t.ttbr ~virt with
  | None -> Error (Translation_fault virt)
  | Some (phys, attrs) ->
    match check t ~virt ~priv attrs with
    | Error f -> Error f
    | Ok () ->
      let ppage = phys lsr Addr.page_shift in
      Tlb.insert t.tlb ~asid:t.asid ~vpage:(virt lsr Addr.page_shift)
        { Tlb.ppage; word = Pte.attr_word attrs; global = attrs.global };
      Ok phys

let translate t _access ~priv virt =
  let s = Tlb.probe t.tlb ~asid:t.asid ~vpage:(virt lsr Addr.page_shift) in
  if s != Tlb.null_slot then hit t ~priv virt (Tlb.entry s)
  else miss t ~priv virt

(* A TLB hit the attribute word allows returns the address without
   building a result: no allocation on the common path. *)
let translate_exn t _access ~priv virt =
  let s = Tlb.probe t.tlb ~asid:t.asid ~vpage:(virt lsr Addr.page_shift) in
  let hit_entry = s != Tlb.null_slot in
  if hit_entry && word_allows t ~priv (Tlb.entry s).Tlb.word then
    page_addr (Tlb.entry s).Tlb.ppage virt
  else
    match
      if hit_entry then hit t ~priv virt (Tlb.entry s) else miss t ~priv virt
    with
    | Ok a -> a
    | Error f -> raise (Fault f)
