type id = int

type t = {
  id : id;
  kind : Task_kind.t;
  size_bytes : int;
  store_addr : Addr.t;
}

let kb = 1024

let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2)

let size_for = function
  | Task_kind.Qam _ -> 80 * kb
  | Task_kind.Fir taps -> (100 + taps) * kb
  | Task_kind.Fft points ->
    (* 250 KB at 256 points, +70 KB per doubling: 600 KB at 8192. *)
    ((250 + (70 * (log2 0 points - 8))) * kb)
  | Task_kind.Fft_stream points ->
    (* The streaming variant carries inter-stage FIFO BRAM on top of
       the butterfly pipeline: 320 KB at 256 points up to 670 KB at 8192. *)
    ((320 + (70 * (log2 0 points - 8))) * kb)
  | Task_kind.Scramble deg -> (64 + deg) * kb (* 71-95 KB: tiny *)
  | Task_kind.Digest rounds -> (150 + rounds) * kb
  | Task_kind.Matmul n -> (380 + (2 * n)) * kb

let make ~id ~kind ~store_addr =
  Task_kind.validate kind;
  { id; kind; size_bytes = size_for kind; store_addr }
