(** µC/OS-II-style real-time kernel (guest OS of the paper's
    evaluation, §V-A).

    Faithful to the original's core semantics: up to 64 tasks at
    {e unique} priorities (0 is most urgent), scheduled strictly
    preemptively from an 8×8 ready bitmap; services for delays,
    counting semaphores, mutexes, mailboxes and message queues; a
    periodic tick that retires delays and pend timeouts. Tasks are
    one-shot fibers; the scheduler resumes the highest-priority ready
    task and regains control when it blocks, yields, or finishes.
    Every OS service charges a code/data footprint through the port's
    platform so the guest's memory behaviour is simulated, not
    assumed. *)

type t

type task_id = int

type sem
type mutex
type mbox
type queue

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

(** {2 Services (call from task bodies)} *)

val delay : t -> int -> unit
(** Block the calling task for n ticks (OSTimeDly). *)

val yield : t -> unit
(** Offer the CPU; the task stays ready (also a VM chunk boundary). *)

val compute_pinned : t -> Fastpath.pinned -> unit
(** Execute a charged workload footprint interned with {!Exec.pin},
    then yield. *)

val time_get : t -> int
(** Ticks since the OS started. *)

val print : t -> string -> unit
(** UART console output through the port. *)

val sem_create : t -> int -> sem
val sem_pend : t -> sem -> ?timeout:int -> unit -> pend_result
val sem_post : t -> sem -> unit

val mutex_create : t -> mutex
val mutex_lock : t -> mutex -> unit
val mutex_unlock : t -> mutex -> unit
(** @raise Invalid_argument when unlocked by a non-owner. *)

val mbox_create : t -> mbox
val mbox_post : t -> mbox -> int -> (unit, string) result
val mbox_pend : t -> mbox -> ?timeout:int -> unit -> int option

val q_create : t -> int -> queue
val q_post : t -> queue -> int -> (unit, string) result
val q_pend : t -> queue -> ?timeout:int -> unit -> int option

type flag_group
(** Event-flag group (the OSFlag services): a 32-bit mask tasks can wait on. *)

type mem_partition
(** Fixed-block memory partition (the OSMem services): constant-time,
    deterministic allocation from a guest-memory region. *)

val flag_create : t -> int -> flag_group
(** [flag_create t initial] — a group with the given initial flags. *)

val flag_post : t -> flag_group -> set:int -> unit
(** OR [set] into the group and wake satisfied waiters. *)

val flag_pend :
  t -> flag_group -> mask:int -> ?wait_all:bool -> ?consume:bool ->
  ?timeout:int -> unit -> int option
(** Wait until the bits of [mask] are set — all of them with
    [wait_all] (default), any of them otherwise. [consume] clears the
    satisfying bits atomically on wake-up. Returns the group value at
    satisfaction, or [None] on timeout. *)

val flags : t -> flag_group -> int
(** Current value (no blocking, charged as a flag-service call). *)

val mem_create : t -> base:Addr.t -> blocks:int -> block_size:int ->
  mem_partition
(** Partition [blocks × block_size] bytes of guest memory at [base]
    (16-byte aligned, like OSMemCreate's alignment demand).
    @raise Invalid_argument on bad geometry. *)

val mem_get : t -> mem_partition -> Addr.t option
(** Take one block; [None] when the partition is exhausted (OSMemGet
    never blocks). *)

val mem_put : t -> mem_partition -> Addr.t -> unit
(** Return a block. @raise Invalid_argument if the address is not a
    block of this partition or the block is already free. *)

val mem_free_blocks : t -> mem_partition -> int

val on_irq : t -> int -> (unit -> unit) -> unit
(** Register a guest-level interrupt handler (the "local IRQ table" of
    the porting patch): called from the OS loop when that source is
    delivered. *)

val ticks : t -> int
val tasks_finished : t -> int
val tasks_crashed : t -> int
