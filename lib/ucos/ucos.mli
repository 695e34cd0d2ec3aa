(** µC/OS-II-style real-time kernel (guest OS of the paper's
    evaluation, §V-A).

    Faithful to the original's core semantics: up to 64 tasks at
    {e unique} priorities (0 is most urgent), scheduled strictly
    preemptively from an 8×8 ready bitmap; services for delays and
    counting semaphores; a periodic tick that retires delays and pend timeouts. Tasks are
    one-shot fibers; the scheduler resumes the highest-priority ready
    task and regains control when it blocks, yields, or finishes.
    Every OS service charges a code/data footprint through the port's
    platform so the guest's memory behaviour is simulated, not
    assumed. *)

type t

type task_id = int

type sem

type pend_result = [ `Ok | `Timeout ]

val tick_interval : Cycles.t
(** 1 ms OS tick. *)

val create : Port.t -> t

val port : t -> Port.t

val spawn : t -> name:string -> prio:int -> (unit -> unit) -> task_id
(** Create a task at a unique priority (0–63, 0 highest). The body
    runs when the scheduler first dispatches it.
    @raise Invalid_argument on a priority conflict or table overflow. *)

val run : t -> unit
(** Start the tick and scheduling loop; returns when every task has
    finished (or {!stop} was requested). This is the guest's [main]
    under Mini-NOVA, or the top-level entry natively. *)

val stop : t -> unit
(** Ask the scheduler loop to exit at its next iteration. *)

val crash : t -> exn option
(** The exception that ended the first crashed task, if any. A crash
    ends only that task: the others keep running. *)

(** {2 Services (call from task bodies)} *)

val delay : t -> int -> unit
(** Block the calling task for n ticks (OSTimeDly); [delay t 0] only
    offers the CPU, and the task stays ready. *)

val compute_pinned : t -> Fastpath.pinned -> unit
(** Execute a charged workload footprint interned with {!Exec.pin},
    then yield. *)

val print : t -> string -> unit
(** UART console output through the port. *)

val sem_create : t -> int -> sem
val sem_pend : t -> sem -> ?timeout:int -> unit -> pend_result
val sem_post : t -> sem -> unit

val on_irq : t -> int -> (unit -> unit) -> unit
(** Register a guest-level interrupt handler (the "local IRQ table" of
    the porting patch): called from the OS loop when that source is
    delivered. *)

