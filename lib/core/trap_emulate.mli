(** Trap-and-emulate path for sensitive instructions (paper §II-A).

    Mini-NOVA replaces frequent sensitive operations with hypercalls,
    but a paravirtualized guest may still execute a privileged
    instruction in USR mode; the CPU raises an Undefined-Instruction
    exception and the kernel decodes and emulates it. This module
    describes that (more expensive) path's cost and computes the emulated
    result; benchmark A3 contrasts it with the hypercall path. *)

val trap_fp : Exec.t
(** UND exception entry + instruction fetch/decode + return. *)

val emulate :
  Zynq.t -> Vcpu.t -> Hyper.priv_instr -> int
(** Emulated semantics of the trapped instruction:
    - [Mrc Reg_counter] reads the global cycle counter;
    - [Mrc Reg_ttbr]/[Reg_asid] read the live MMU state (the guest sees
      its own values while it is current);
    - [Mrc Reg_cpuid] returns the Cortex-A9 MIDR;
    - [Mrc Reg_l2ctrl]/[Mcr Reg_l2ctrl] access the vCPU's shadowed,
      lazily-switched L2 control register (Table I);
    - other [Mcr] writes are denied (return 0) — guests may not touch
      the real TTBR/ASID;
    - [Wfi] is a no-op here (guests idle through {!Hyper.idle}). *)
