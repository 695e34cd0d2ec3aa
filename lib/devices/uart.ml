type t = { buf : Buffer.t }

let create () = { buf = Buffer.create 256 }

let write_byte t c = Buffer.add_char t.buf c

let write_string t s = String.iter (write_byte t) s

let contents t = Buffer.contents t.buf

