let trap_fp =
  let und_base, und_len = Klayout.und_entry in
  let dec_base, dec_len = Klayout.trap_decode in
  { Exec.label = "und_trap";
    code = { Exec.base = und_base; len = und_len };
    reads = [ { Exec.base = dec_base; len = dec_len } ];
    writes = [];
    base_cycles =
      Cpu_mode.exception_entry_cycles + Costs.und_decode
      + Cpu_mode.exception_return_cycles }

let midr_cortex_a9 = 0x410FC090

let emulate zynq vcpu = function
  | Hyper.Mrc Hyper.Reg_counter -> Clock.now zynq.Zynq.clock
  | Hyper.Mrc Hyper.Reg_ttbr -> Mmu.ttbr zynq.Zynq.mmu
  | Hyper.Mrc Hyper.Reg_asid -> Mmu.asid zynq.Zynq.mmu
  | Hyper.Mrc Hyper.Reg_cpuid -> midr_cortex_a9
  | Hyper.Mrc Hyper.Reg_l2ctrl -> Vcpu.l2ctrl vcpu
  | Hyper.Mcr (Hyper.Reg_l2ctrl, v) ->
    Vcpu.set_l2ctrl vcpu v;
    0
  | Hyper.Mcr ((Hyper.Reg_ttbr | Hyper.Reg_asid | Hyper.Reg_counter
               | Hyper.Reg_cpuid), _) -> 0
  | Hyper.Wfi -> 0
