type t = { buf : Buffer.t; on_byte : char -> unit }

let create ?(on_byte = fun _ -> ()) () = { buf = Buffer.create 256; on_byte }

let write_byte t c =
  Buffer.add_char t.buf c;
  t.on_byte c

let write_string t s = String.iter (write_byte t) s

let contents t = Buffer.contents t.buf

