let os_code_base = Guest_layout.kernel_base + 0x8000
let app_code_base = Guest_layout.kernel_base + 0x1_0000
let tcb_base = Guest_layout.kernel_base + 0x2_0000
