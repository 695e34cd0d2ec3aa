let mb = 1 lsl 20

(* The window sits at 256 MB so it can never shadow the kernel's
   identity-mapped image, the bitstream store, or the PL window. *)
let kernel_base = 0x1000_0000
let kernel_size = 4 * mb

let user_base = kernel_base + kernel_size
let user_size = 11 * mb

let page_region_base = kernel_base + (15 * mb)
let page_region_size = mb

let default_data_section = kernel_base + 0x0080_0000
let default_data_section_len = 256 * 1024

(* ABI v2 descriptor rings: one submission page and one completion
   page at the top of the linearly-mapped user area (below the page
   region), so the guest reaches them through its ordinary section
   mappings and the kernel derives their physical home with a plain
   linear translation — no on-demand mapping hypercalls needed. *)
let ring_sq_base = kernel_base + (14 * mb)
let ring_cq_base = ring_sq_base + Addr.page_size
let ring_max_entries = 64
let ring_hdr_size = 64
let ring_desc_size = 32
let ring_desc_words = 7
let ring_cqe_size = 16

let default_iface_vaddr prr = page_region_base + (prr * Addr.page_size)

let task_iface_vaddr task = default_iface_vaddr (64 + (task land 127))

let to_phys ~phys_base vaddr =
  if vaddr < kernel_base || vaddr >= page_region_base then
    invalid_arg "Guest_layout.to_phys: not in a linearly-mapped area";
  phys_base + (vaddr - kernel_base)
