type t = { store : (int, Bytes.t) Hashtbl.t; blocks : int }

let block_size = 512

let create ?(blocks = 8 * 1024 * 1024) () =
  { store = Hashtbl.create 64; blocks }

let check t i =
  if i < 0 || i >= t.blocks then invalid_arg "Sd_card: block out of range"

let read_block t i =
  check t i;
  match Hashtbl.find_opt t.store i with
  | Some b -> Bytes.copy b
  | None -> Bytes.make block_size '\000'

let write_block t i b =
  check t i;
  if Bytes.length b <> block_size then
    invalid_arg "Sd_card.write_block: buffer must be one block";
  Hashtbl.replace t.store i (Bytes.copy b)

(* 512 B at ~25 MB/s on a 660 MHz core. *)
let transfer_cycles = Cycles.of_us 20.0
