let max_irq = 96
let private_timer = 29
let devcfg = 40
let pl_count = 16

let pl i =
  if i < 0 || i >= pl_count then invalid_arg "Irq_id.pl: index out of range";
  if i < 8 then 61 + i else 84 + (i - 8)

let pl_index id =
  if id >= 61 && id <= 68 then Some (id - 61)
  else if id >= 84 && id <= 91 then Some (id - 84 + 8)
  else None
