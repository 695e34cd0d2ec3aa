let exception_entry_cycles = 20
let exception_return_cycles = 16
