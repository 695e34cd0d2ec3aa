(** The Hardware Task Manager (paper §IV).

    The user-level service that owns the bitstream store, the hardware
    task table and the PRR table, and that dispatches DPR hardware
    tasks to clients. One instance serves both deployments the paper
    evaluates: under Mini-NOVA (clients are VMs; interface pages are
    mapped/demapped in guest page tables) and natively under a single
    RTOS (clients share one space; the mapping callbacks are no-ops).

    The allocation routine follows Fig 7:
    + look the task up (unknown id → [Hw_bad_task]);
    + select a PRR from the task's suitability list — prefer one
      already configured with the task, then an empty one, then
      reconfigure an idle one; all busy/reconfiguring → [Hw_busy];
    + if the chosen PRR belongs to another client, reclaim it: save
      its register group and an {e inconsistent} flag into the old
      client's data section, demap the old client's interface;
    + map the interface page for the new client;
    + load the hwMMU with the new client's data-section window;
    + if the task is not already configured, launch (and do not wait
      for) a PCAP download — the caller gets [Hw_reconfig];
    + otherwise [Hw_success].

    All table walks and bookkeeping are charged as manager-space
    footprints; the caller is responsible for having activated the
    manager's address space first. *)

type t

(** How the manager reaches its clients' environments. Installed once
    at {!create}; every callback names the client by id, and the task
    and interface vaddr are those of the allocation it acts on (a
    reclaim passes the previous holder's, as recorded in the row). *)
type env = {
  map_iface :
    client_id:int -> task:Bitstream.id -> vaddr:Addr.t -> Prr.t ->
    (unit, string) result;
  (** stage 3: expose the PRR register page to the client at [vaddr] *)

  unmap_iface :
    client_id:int -> task:Bitstream.id -> vaddr:Addr.t -> Prr.t -> unit;
  (** inverse, used at reclaim/release time *)

  notify_irq : client_id:int -> Prr.t -> int -> unit;
  (** register an allocated PL IRQ source in the client's vGIC *)
}

val shared_space : env
(** Clients sharing the manager's address space (the native
    deployment): mapping always succeeds, and every callback does
    nothing. *)

type alloc_result = {
  status : Hyper.hw_status;
  prr : int option;
  irq : int option;
}

(** {2 Graceful-degradation policy} (durations in cycles) *)

val exec_timeout : Cycles.t
(** A PRR busy longer than this (5 ms) is declared hung and
    force-reset. *)

val reconfig_retry_limit : int
(** Relaunch attempts per allocation after a failed download (3); each
    waits a 1 ms backoff doubled per attempt. *)

val quarantine_threshold : int
(** Consecutive faults on one region before it is kept out of rotation
    for 50 ms (3). *)

val kill_violation_threshold : int
(** Accumulated real hwMMU violations before a client-kill request
    (8). *)

(** One recovery decision taken by {!health_scan}, in scan order. *)
type action =
  | Act_retry of { prr : int; task : Bitstream.id }
    (** failed download relaunched *)
  | Act_recovered of { prr : int; task : Bitstream.id }
    (** a relaunched download completed; allocation healthy again *)
  | Act_gave_up of { prr : int; task : Bitstream.id }
    (** retry limit hit; region reclaimed (client sees inconsistent) *)
  | Act_reset_hung of { prr : int }
    (** stuck-busy region force-reset *)
  | Act_quarantine of { prr : int }
  | Act_unquarantine of { prr : int }
  | Act_kill of { client : int; violations : int }
    (** the kernel should kill this client (hwMMU violation limit) *)

val action_name : action -> string
(** Short kebab-case label (Ktrace events, [recovery.*] Obs counters). *)

(** {2 Data-section consistency block}

    The first {!reserved_bytes} of every data section hold the state
    the paper describes in §IV-C: a flag word (0 = consistent, 1 = the
    task was reclaimed by another client) followed by the saved
    register group. *)

val reserved_bytes : int
val flag_offset : int
val saved_regs_offset : int

(** PRR sharing discipline. [Dynamic] (default) is the paper's DPR
    time-sharing: any client may be allocated any suitable PRR, with
    reclaim/reconfiguration on demand. [Static] is the Jailhouse-style
    baseline: each PRR is pinned to at most one client at boot
    ({!pin_prr}) and requests that would land on a foreign PRR fail
    fast with [Hw_denied]. *)
type partition = Dynamic | Static

val create : ?partition:partition -> ?env:env -> Zynq.t -> t
(** [env] defaults to {!shared_space}. *)

val partition : t -> partition

val pin_prr : t -> prr_id:int -> client_id:int -> (unit, string) result
(** Assign a PRR to a client for the lifetime of the static partition
    (boot-time configuration; repinning overwrites). Only consulted in
    [Static] mode. *)

val pinned_client : t -> int -> int option
(** The static owner of a PRR, if any. *)

val register_task : t -> Task_kind.t -> Bitstream.id
(** Add a task to the hardware task table: allocates space in the
    bitstream store, derives the suitable-PRR list from capacities.
    Failure leaves the manager state untouched.
    @raise Invalid_argument if the kind is out of its parameter range.
    @raise Failure if no PRR can host the kind or the store is full. *)

val try_register_task : t -> Task_kind.t -> (Bitstream.id, string) result
(** Non-raising {!register_task}: every failure (bad kind, no hosting
    PRR, store exhausted) comes back as [Error] with the manager state
    unmutated — the form hypercall paths use so a guest request can
    never crash the simulation. *)

val destroy_task : t -> Bitstream.id -> (unit, string) result
(** Remove a task from the table and recycle its bitstream-store
    range (page-aligned, coalesced with abutting free neighbours), so
    register/destroy churn does not exhaust the store. Refused while
    any client still holds the task. Task ids are never reused. *)

val task_kind : t -> Bitstream.id -> Task_kind.t option
val task_ids : t -> Bitstream.id list

val task_allocated : t -> Bitstream.id -> bool
(** Whether any client currently holds the task on a PRR row. *)

val request :
  t -> client_id:int -> data_base:Addr.t -> data_len:int ->
  iface_vaddr:Addr.t -> task:Bitstream.id -> want_irq:bool -> alloc_result
(** The Fig 7 allocation routine (fully charged). [data_base] and
    [data_len] are the physical window of the client's hardware-task
    data section, [iface_vaddr] where it wants the register page; the
    row keeps the window's base and [iface_vaddr], so a later reclaim
    saves into this window and unmaps this page. A
    failed [map_iface] yields [Hw_fault] (the guest passed a bad
    interface address — never a kernel crash); losing the PCAP race
    yields [Hw_busy] with the allocation fully rolled back (row,
    interface mapping, hwMMU window and IRQ all released). *)

val release : t -> client_id:int -> task:Bitstream.id ->
  (unit, string) result
(** Voluntarily give a task back: clears the PRR's client, hwMMU and
    interface mapping (no inconsistent flag — the client asked). *)

val poll : t -> client_id:int -> task:Bitstream.id -> bool * bool
(** [(prr_ready, consistent)]: whether the client's allocation of
    [task] is configured and ready, and whether the client still holds
    it (false once reclaimed by someone else). *)

val faults : t -> client_id:int -> task:Bitstream.id -> int
(** Fault/recovery events that hit the client's current allocation of
    [task] (0 when healthy or not held) — surfaced to guests in
    [R_status.faults]. *)

val health_scan : t -> action list
(** Graceful-degradation pass, called by the kernel on its periodic
    tick: detects hung regions (force-reset), failed reconfigurations
    (bounded relaunch with backoff, then reclaim), repeatedly-failing
    regions (quarantine + later reclaim into rotation) and clients
    accumulating real hwMMU violations (kill request — the manager
    cannot kill a VM itself). Pure reads when nothing is wrong;
    recovery work is charged only when actions fire. *)

val prr_client : t -> int -> int option
(** Current client of a PRR (evaluation/debug). *)

val requests : t -> int
val reclaims : t -> int
val reconfigs : t -> int

val recoveries : t -> int
(** Recovery actions performed (resets, relaunch round-trips,
    give-ups, unquarantines). *)

val quarantines : t -> int
val hang_resets : t -> int
val retries : t -> int
(** Reconfiguration relaunches after failed downloads. *)

val pcap_client : t -> int option
(** Client that launched the in-flight (or last) PCAP transfer — the
    PCAP completion IRQ is routed to it (paper §IV-D). *)
