(** The four benchmark workloads. Each boots its own complex from the
    public APIs, owns its guests, and exposes the measured part (first
    [Smp.run] to guest exhaustion) separately from set-up. *)

type kind = Fig8 | Ring_fleet | Trap_fleet | Churn

val all : kind list
val name : kind -> string
val of_name : string -> kind option

val default_size : kind -> int
(** The tuned size: T_hw requests per guest (fig8), jobs per fleet
    guest (ring, trap) or simulated horizon in ms (churn). *)

val size_name : kind -> string

val faulty : kind -> bool
(** Whether the workload injects PL faults (a wrong job result is then
    a failure, not an invalid run). *)

type world = {
  smp : Smp.t;
  tallies : Guest_kit.tally list;
  lateness : Guest_kit.samples;  (** open-loop issue lateness, cycles *)
  sweeps : int ref;              (** check-hook invocations *)
  epochs : int ref;              (** Smp barriers *)
  drive : unit -> unit;          (** run to guest exhaustion *)
}

val setup :
  kind -> size:int -> seed:int -> workers:int -> observe:bool ->
  Layer_clock.t -> world
(** Boot, register the task set and create every guest. *)
