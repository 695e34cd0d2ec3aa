(** Guest-side ABI v2 descriptor-ring library.

    The batched counterpart of the one-shot {!Hw_task_api} protocol:
    the guest writes 32 B job descriptors into the shared submission
    page ({!Guest_layout.ring_sq_base}), publishes them with a single
    tail store, and rings the doorbell hypercall once per batch; the
    kernel drains them in order and writes 16 B completion entries the
    guest consumes with {!poll}. All ring traffic goes through charged
    USR virtual accesses, and every header field is reread from the
    shared page on use (never shadowed), so kernel- and host-side
    writers can interleave with guest progress. *)

type t = {
  sq : Addr.t;             (** submission page (guest virtual) *)
  cq : Addr.t;             (** completion page *)
  entries : int;           (** ring depth granted by the kernel *)
  mutable chead : int;     (** completion consumption index *)
  words : int array;
  (** staging for one descriptor or completion entry, so the guest
      moves each as one word run ({!Zynq.vwrite_words}) *)
}

type cqe = {
  tag : int;               (** echoed from the descriptor *)
  status : int;            (** [status_*] code *)
  prr : int option;
  irq : int option;
}

(** The CQE status codes a guest acts on (the kernel's encoding of
    {!Hyper.hw_status}). Every other code is a refusal: 3 bad task,
    4 fault, 5 a descriptor that failed validation, 6 denied by static
    partitioning. *)

val status_success : int
val status_reconfig : int
val status_busy : int

val setup :
  Port.t -> ?entries:int -> ?cvirq_budget:int -> unit -> (t, string) result
(** [Ring_setup]: defaults to the full 64-entry depth and a completion
    vIRQ per 8 completions ([cvirq_budget = 0] selects pure polling). *)

val enqueue :
  Port.t -> t -> op:[ `Request | `Release ] -> task:int ->
  ?iface_vaddr:Addr.t -> ?data_vaddr:Addr.t -> ?data_len:int ->
  ?want_irq:bool -> tag:int -> unit -> bool
(** Write one descriptor and publish it with a tail store; [false]
    when the submission ring is full (backpressure — ring the doorbell
    and retry). No hypercall is issued. [want_irq] is bit 0 of the
    descriptor's flags word; the bits above it are reserved, written
    as 0 and ignored by the kernel, which drains a doorbell batch in
    submission order. *)

val doorbell : Port.t -> t -> (int, string) result
(** [Ring_doorbell]: returns the number of descriptors drained. *)

val poll : Port.t -> t -> cqe option
(** Consume one completion entry, advancing the guest head so the
    kernel may reuse the slot. *)

val drain_completions : Port.t -> t -> cqe list

