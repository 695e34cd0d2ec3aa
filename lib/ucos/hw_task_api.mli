(** Guest-side hardware-task library (the "functionalities supporting
    hardware task access … added as APIs" of paper §V-A).

    Wraps the request/poll/release protocol, the PRR register-group
    interface, the DMA data-section layout (input/output areas after
    the consistency block) and cache maintenance, so guest tasks can
    use a reconfigurable accelerator in a few lines. All register and
    sample traffic goes through charged virtual-memory accesses; a
    demapped interface page (the task was reclaimed) surfaces as
    {!Reclaimed}. *)

exception Reclaimed
(** The interface page faulted: another VM took the PRR (paper §IV-C,
    second acknowledgement method). *)

type t = {
  task : int;              (** hardware task id *)
  iface : Addr.t;          (** where the register group is reachable *)
  data : Addr.t;           (** data-section base (guest virtual) *)
  data_len : int;
  irq : int option;        (** PL interrupt id, when requested *)
  prr : int option;
  completion : Ucos.sem option;  (** posted by the IRQ handler *)
  retries : int;           (** [Hw_busy] retries spent during acquire *)
}

val data_in_off : int
(** Input area offset inside the data section (after the consistency
    block). *)

val acquire :
  Ucos.t -> task:int -> ?iface_vaddr:Addr.t -> ?data_vaddr:Addr.t ->
  ?data_len:int -> ?want_irq:bool -> ?wait_ready:bool ->
  ?max_tries:int -> ?backoff:bool -> unit ->
  (t, string) result
(** Request the task from the Hardware Task Manager. [Hw_busy] is
    retried up to [max_tries] (default 100) times; by default each
    retry sleeps one tick, with [backoff] (default false) the delay
    doubles per retry (1, 2, 4, 8, then capped at 16 ticks), which
    eases contention under fault injection. The retry count is
    reported in the handle's [retries] field. [Hw_fault] (manager
    could not map the interface, or the PRR is quarantined) is
    returned as an error. [Hw_reconfig] is awaited when [wait_ready]
    (default true) by polling the status hypercall each tick; if the
    manager gives the allocation up meanwhile (persistent download
    faults) the poll ends with an error instead of timing out. With
    [want_irq], a completion semaphore is wired to the allocated PL
    interrupt. Defaults: interface page at a per-task page-region
    address, data section at {!Guest_layout.default_data_section}. *)

val release : Ucos.t -> t -> unit

val start : Ucos.t -> t -> src_off:int -> dst_off:int -> len:int ->
  param:int -> unit
(** Program the job registers and set CTRL.start (IRQ enable follows
    whether the handle holds an interrupt). @raise Reclaimed. *)

type outcome = [ `Done | `Violation | `Fault | `Reclaimed ]

val wait_done : Ucos.t -> t -> outcome
(** Wait for job completion: pend on the completion semaphore (IRQ
    mode) or poll STATUS with 1-tick delays. [`Violation] reports an
    hwMMU refusal; [`Fault] a device fault (STATUS bit 4 — DMA beat
    error, or a hung IP core reset by the kernel's health scan). *)

val inconsistent : Ucos.t -> t -> bool
(** Read the consistency flag in the data section (paper §IV-C, first
    acknowledgement method). *)

(** {2 Whole-job helpers}

    Each writes the input into the data section, cleans the cache,
    runs the job, invalidates and reads back the output. *)

val run_fft :
  Ucos.t -> t -> inverse:bool -> re:float array -> im:float array ->
  (float array * float array, string) result

val run_qam_mod :
  Ucos.t -> t -> order:int -> bits:int array ->
  (float array * float array, string) result
(** [order] is the constellation size of the acquired QAM task. *)

val run_qam_demod :
  Ucos.t -> t -> order:int -> i:float array -> q:float array ->
  (int array, string) result

val run_fir :
  Ucos.t -> t -> response:Fir.response -> samples:float array ->
  (float array, string) result
(** Filter a block of real samples through an acquired FIR task. *)

val run_scramble :
  Ucos.t -> t -> seed:int -> data:int array -> (int array, string) result
(** XOR a byte block with the scrambler keystream ([seed] programs the
    LFSR via PARAM). Running the output back through with the same
    seed restores the input — the verification the scrambler guests
    use. *)

val run_digest :
  Ucos.t -> t -> tweak:int -> data:int array -> (int array, string) result
(** Digest a byte block (length a multiple of 64) into 32 output
    bytes. *)

val run_matmul :
  Ucos.t -> t -> a:float array -> (float array, string) result
(** Square the n×n row-major float32 matrix [a] (length a multiple of
    n·n for the acquired MM-n task). [run_fft] works unchanged for
    streaming-FFT (SFFT) tasks — the data layout is identical; only
    the timing model differs. *)
