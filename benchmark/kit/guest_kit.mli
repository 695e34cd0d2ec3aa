(** What every benchmark guest shares: a per-guest tally, a port
    wrapper that times each synchronous port call on both clocks, and
    a job verifier that tells a wrong result from a failed job. *)

(** A growable int sample buffer. *)
type samples

val samples : unit -> samples
val push : samples -> int -> unit

val sorted : samples list -> int array
(** Every sample of the buffers, ascending. *)

(** One guest's (or one churn slot's) job accounting. Each tally is
    touched only by the domain simulating its guest. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable mismatches : int;   (** verified jobs whose result was wrong *)
  mutable abi_cycles : int;   (** simulated cycles inside synchronous
                                  port calls *)
  latency : samples;          (** issue (or due) → outcome, cycles *)
}

val tally : unit -> tally

val settle : tally -> ok:bool -> latency:int -> unit
(** Count one finished job and its guest-observed latency. *)

val wrap_port : Layer_clock.t -> tally -> Port.t -> Port.t
(** The same port with every call timed: [hw_request] under
    [hyper_request], [ring_doorbell] under [hyper_doorbell], the other
    synchronous calls under [hyper_other] (all of them also add their
    simulated cycles to [abi_cycles]), and [pause]/[idle_wait] through
    {!Layer_clock.suspend}. *)

val deck : Rng.t -> 'a array -> unit -> 'a
(** Seeded draws that deal each element once per [Array.length]
    draws, in a fresh shuffled order every round: the mix of kinds is
    fixed, only their order depends on the seed. *)

val guest_main :
  Layer_clock.t -> (Kernel.guest_env -> unit) -> Kernel.guest_env -> unit
(** A guest [main] that runs under the [guest] label. *)

type outcome =
  | Verified
  | Mismatch      (** the job ran but its output is wrong *)
  | Failed        (** the job helper returned an error *)
  | Unverifiable  (** a kind the whole-job helpers cannot stream *)

val verified_job :
  Layer_clock.t -> Ucos.t -> Rng.t -> Hw_task_api.t -> Task_kind.t -> outcome
(** One real DMA job through an acquired handle, checked against the
    software reference with the tolerances of [Scenario.verified_job].
    Input generation and the reference run under the [workloads]
    label. *)
