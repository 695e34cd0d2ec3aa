type t = Usr | Svc | Irq | Fiq | Und | Abt

type privilege = Pl0 | Pl1

let privilege = function
  | Usr -> Pl0
  | Svc | Irq | Fiq | Und | Abt -> Pl1

let is_privileged m = privilege m = Pl1

let exception_entry_cycles = 20
let exception_return_cycles = 16

let name = function
  | Usr -> "usr"
  | Svc -> "svc"
  | Irq -> "irq"
  | Fiq -> "fiq"
  | Und -> "und"
  | Abt -> "abt"
