type t = int

let cpu_hz = 660_000_000

let cycles_per_ns = float_of_int cpu_hz /. 1e9

let of_ns ns = int_of_float (Float.round (ns *. cycles_per_ns))
let of_us us = of_ns (us *. 1e3)
let of_ms ms = of_ns (ms *. 1e6)

let to_ns c = float_of_int c /. cycles_per_ns
let to_us c = to_ns c /. 1e3
let to_ms c = to_ns c /. 1e6
