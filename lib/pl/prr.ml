type state = Empty | Reconfiguring | Ready | Busy

module Reg = struct
  let ctrl = 0
  let status = 1
  let src_offset = 2
  let dst_offset = 3
  let len = 4
  let param = 5
  let task_id = 6
  let irq = 7
  let count = 8
end

type t = {
  id : int;
  capacity : int;
  regs_base : Addr.t;
  hw_mmu : Hw_mmu.t;
  regs : int32 array;
  mutable state : state;
  mutable loaded : Bitstream.t option;
  mutable irq_index : int option;
  mutable busy_since : Cycles.t;
  mutable job_gen : int;
  mutable submitted_at : Cycles.t;
  mutable busy_cycles : int;
}

let make ~id ~capacity =
  { id; capacity;
    regs_base = Address_map.prr_regs_base + (id * Address_map.prr_regs_stride);
    hw_mmu = Hw_mmu.create ();
    regs = Array.make Reg.count 0l;
    state = Empty;
    loaded = None;
    irq_index = None;
    busy_since = 0;
    job_gen = 0;
    submitted_at = 0;
    busy_cycles = 0 }

let check_reg i =
  if i < 0 || i >= Reg.count then invalid_arg "Prr: register index out of range"

let read_reg t i =
  check_reg i;
  t.regs.(i)

let write_reg t i v =
  check_reg i;
  t.regs.(i) <- v

let set_status_bit t bit on =
  let cur = Int32.to_int t.regs.(Reg.status) in
  let v = if on then cur lor (1 lsl bit) else cur land lnot (1 lsl bit) in
  t.regs.(Reg.status) <- Int32.of_int v

let can_host t kind = Task_kind.resource_units kind <= t.capacity
