type access = No_access | Client | Manager

(* [word] mirrors [fields] in the hardware encoding at all times, so
   reading the register (and the fast-path context checks that compare
   DACR state per footprint run) is O(1). *)
type t = { fields : access array; mutable word : int }

let bits = function No_access -> 0b00 | Client -> 0b01 | Manager -> 0b11

let create () = { fields = Array.make 16 No_access; word = 0 }

let check dom =
  if dom < 0 || dom > 15 then invalid_arg "Dacr: domain out of range"

let set t dom a =
  check dom;
  t.fields.(dom) <- a;
  let sh = 2 * dom in
  t.word <- t.word land lnot (0b11 lsl sh) lor (bits a lsl sh)

let set_all t a =
  Array.fill t.fields 0 16 a;
  t.word <- bits a * 0x5555_5555

let get t dom =
  check dom;
  t.fields.(dom)

let to_word t = t.word
