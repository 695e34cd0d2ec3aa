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

(** Completion status codes (the CQE encoding of {!Hyper.hw_status}
    plus [status_error] for validation failures). *)

val status_success : int
val status_reconfig : int
val status_busy : int
val status_bad_task : int
val status_fault : int
val status_error : int

val status_denied : int
(** Static partitioning refused the request ([Hyper.Hw_denied]) —
    permanent for the current PRR layout, not worth retrying. *)

val status_name : int -> string

val setup :
  Port.t -> ?entries:int -> ?cvirq_budget:int -> unit -> (t, string) result
(** [Ring_setup]: defaults to the full 64-entry depth and a completion
    vIRQ per 8 completions ([cvirq_budget = 0] selects pure polling). *)

val enqueue :
  Port.t -> t -> op:[ `Request | `Release ] -> task:int ->
  ?iface_vaddr:Addr.t -> ?data_vaddr:Addr.t -> ?data_len:int ->
  ?want_irq:bool -> ?deadline:int -> tag:int -> unit -> bool
(** Write one descriptor and publish it with a tail store; [false]
    when the submission ring is full (backpressure — ring the doorbell
    and retry). No hypercall is issued. [deadline] (default 0) is the
    admission key stored in the descriptor flags word above the
    want_irq bit; kernels configured with [`Deadline] ring admission
    drain a doorbell batch in ascending deadline order. *)

val doorbell : Port.t -> t -> (int, string) result
(** [Ring_doorbell]: returns the number of descriptors drained. *)

val poll : Port.t -> t -> cqe option
(** Consume one completion entry, advancing the guest head so the
    kernel may reuse the slot. *)

val drain_completions : Port.t -> t -> cqe list

val submit_requests :
  Port.t -> t -> tasks:int list -> ?want_irq:bool -> unit ->
  (int * cqe list, string) result
(** Enqueue a request descriptor per task (tags [1..n]), ring the
    doorbell once, and drain the completions that arrived: returns
    (descriptors accepted, completions). *)
