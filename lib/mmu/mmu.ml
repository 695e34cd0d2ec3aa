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

let translate t _access ~priv virt =
  let vpage = virt lsr Addr.page_shift in
  let page_off = virt land (Addr.page_size - 1) in
  match Tlb.lookup t.tlb ~asid:t.asid ~vpage with
  | Some e ->
    let attrs = Pte.attr_of_word e.Tlb.word in
    (match check t ~virt ~priv attrs with
     | Ok () -> Ok ((e.Tlb.ppage lsl Addr.page_shift) lor page_off)
     | Error f -> Error f)
  | None ->
    (* Hardware walk: descriptor reads are normal cached loads. *)
    let read a =
      ignore (Hierarchy.access t.hier Hierarchy.Load a);
      Phys_mem.read_u32 t.mem a
    in
    (match Page_table.walk ~read ~root:t.ttbr ~virt with
     | None -> Error (Translation_fault virt)
     | Some (phys, attrs) ->
       match check t ~virt ~priv attrs with
       | Error f -> Error f
       | Ok () ->
         let ppage = phys lsr Addr.page_shift in
         Tlb.insert t.tlb ~asid:t.asid ~vpage
           { Tlb.ppage; word = Pte.attr_word attrs; global = attrs.global };
         Ok phys)

let translate_exn t access ~priv virt =
  match translate t access ~priv virt with
  | Ok a -> a
  | Error f -> raise (Fault f)
