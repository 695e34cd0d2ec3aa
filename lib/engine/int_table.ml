(* Open addressing over two flat arrays: [keys.(i)] and [vals.(i)] are
   slot [i]'s binding, and a slot is empty exactly when its value is
   the [empty] marker. Collisions probe forward (linear probing);
   [remove] shifts the rest of the probe run back into the hole
   instead of leaving a tombstone, so every run stays contiguous, a
   miss stops at the first empty slot and the table never rehashes to
   clear deletions. The load stays at or under one half.

   A key's home slot is the top log2(capacity) bits of [k * golden]
   (multiplicative hashing), so consecutive keys, such as event-queue
   sequence numbers, spread over the table. *)

(* The one value no caller can hold: a fresh block compared by
   address. Stored in every empty slot, it is also what [remove]
   writes, so a removed value is no longer reachable from the table. *)
let empty : Obj.t = Obj.repr (ref ())

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int;  (* [Sys.int_size] - log2 (capacity) *)
  mutable size : int;
}

let golden = 0x4F1B_BCDC_BFA5_3E0B

let home t k = (k * golden) lsr t.shift

let is_empty v = Obj.repr v == empty

(* [vals] is made by [Array.make] from [empty], a block, so it is never
   a flat float array whatever ['a] is. Its slots are read and written
   as fields of a type the compiler knows is not [float], which skips
   the float-array test (and its inline boxing code) that a generic
   ['a array] access carries. *)
type field = Field of int [@@warning "-37"]

let fresh_vals cap : 'a array = Obj.magic (Array.make cap empty)

let get (a : 'a array) i : 'a =
  Obj.magic (Array.unsafe_get (Obj.magic a : field array) i)

let set (a : 'a array) i (v : 'a) =
  Array.unsafe_set (Obj.magic a : field array) i (Obj.magic v : field)

let create n =
  let cap = ref 8 and bits = ref 3 in
  while !cap < 2 * n do
    cap := 2 * !cap;
    incr bits
  done;
  { keys = Array.make !cap 0; vals = fresh_vals !cap;
    shift = Sys.int_size - !bits; size = 0 }

let length t = t.size

(* The slot holding [k], or the empty slot that ends its probe run,
   read-only: tables are looked up from several domains at once. *)
let rec probe t k i =
  let v = get t.vals i in
  if is_empty v || Array.unsafe_get t.keys i = k then i
  else probe t k ((i + 1) land (Array.length t.keys - 1))

let slot t k = probe t k (home t k)

let mem t k = not (is_empty (get t.vals (slot t k)))

let find t k =
  let v = get t.vals (slot t k) in
  if is_empty v then raise Not_found else v

let find_opt t k =
  let v = get t.vals (slot t k) in
  if is_empty v then None else Some v

(* Double the capacity, reinserting in slot order: the new layout is
   a function of the old one, so it too follows from the operation
   sequence alone. *)
let[@inline never] grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- fresh_vals cap;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length keys - 1 do
    let v = get vals i in
    if not (is_empty v) then begin
      let k = Array.unsafe_get keys i in
      let j = slot t k in
      Array.unsafe_set t.keys j k;
      set t.vals j v
    end
  done

(* [i] is the empty slot that ended [k]'s probe run. *)
let[@inline never] insert t k v i =
  let i =
    if 2 * (t.size + 1) <= Array.length t.keys then i
    else begin
      grow t;
      slot t k
    end
  in
  Array.unsafe_set t.keys i k;
  set t.vals i v;
  t.size <- t.size + 1

let replace t k v =
  let i = slot t k in
  if is_empty (get t.vals i) then insert t k v i
  else set t.vals i v

(* Backward-shift deletion: walk the run after the hole; an entry
   whose home lies cyclically at or before the hole moves into it and
   leaves a new hole behind. The run ends at an empty slot, which the
   last hole joins. *)
let[@inline never] remove t k =
  let hole = slot t k in
  if not (is_empty (get t.vals hole)) then begin
    let mask = Array.length t.keys - 1 in
    let hole = ref hole and j = ref ((hole + 1) land mask) in
    while not (is_empty (get t.vals !j)) do
      let kj = Array.unsafe_get t.keys !j in
      if (!j - home t kj) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set t.keys !hole kj;
        set t.vals !hole (get t.vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    set t.vals !hole (Obj.magic empty);
    t.size <- t.size - 1
  end

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let v = get vals i in
    if not (is_empty v) then acc := f (Array.unsafe_get keys i) v !acc
  done;
  !acc

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let v = get vals i in
    if not (is_empty v) then f (Array.unsafe_get keys i) v
  done
