let mb = 1 lsl 20
let kb = 1 lsl 10

let ddr_base = 0x0010_0000
let ddr_size = 511 * mb

let ocm_base = 0xFFFC_0000
let ocm_size = 256 * kb

let axi_gp0_base = 0x4000_0000
let axi_gp0_size = 16 * mb

let prr_regs_base = axi_gp0_base
let prr_regs_stride = 4096

let gic_dist_base = 0xF8F0_1000
let gic_cpu_base = 0xF8F0_0100
let private_timer_base = 0xF8F0_0600
let devcfg_base = 0xF800_7000
let uart0_base = 0xE000_0000
let sd0_base = 0xE010_0000

let kernel_code_base = ddr_base
let kernel_code_size = mb

let kernel_data_base = ddr_base + mb
let kernel_data_size = 3 * mb

let bitstream_store_base = ddr_base + (4 * mb)
let bitstream_store_size = 28 * mb

(* Kernel object heap overflow: the 3 MB kernel data region cannot
   hold page tables for hundreds of guests, so the frame allocator
   gets a second region directly above the low DDR bank (still below
   4 GB — L2 table bases must encode in a plain 32-bit descriptor). *)
let kernel_heap_base = ddr_base + ddr_size
let kernel_heap_size = 16 * mb

let guest_phys_size = 16 * mb

(* Guest windows: the low DDR bank holds the first 29 slots at their
   historical addresses; the remaining slots live in a second DDR bank
   at 4 GB (reached through the extended base bits of {!Pte}), clear
   of every memory-mapped peripheral. Both formulas are O(1). *)
let low_guest_slots = (ddr_size - (32 * mb)) / guest_phys_size
let guest_slot_count = 256

let ddr_high_base = 0x1_0000_0000
let ddr_high_size = (guest_slot_count - low_guest_slots) * guest_phys_size

let guest_phys_base i =
  if i < low_guest_slots then ddr_base + (32 * mb) + (i * guest_phys_size)
  else ddr_high_base + ((i - low_guest_slots) * guest_phys_size)
