(* The one work-handout loop: independent jobs on OCaml domains.

   Used for whole simulated worlds (the harness sweeps: every job
   builds its own Zynq.create and everything above it) and for the
   per-pCPU nodes of one Smp epoch. Either way the jobs share nothing
   — the effect handlers behind Hyper/Ucos are per-fiber — so an
   atomic index hands them out and the calling domain takes part.
   Errors land in per-job slots and the lowest-index one is re-raised
   with its original backtrace once every job has finished, so the
   outcome never depends on how the domains interleave. A call that
   runs inline (a budget of 1, or a busy pool) keeps the same
   contract: it runs every item before re-raising.

   The helpers are one per-process pool of persistent worker domains.
   An Smp run hands out one epoch per simulated millisecond, thousands
   per run, and a Domain.spawn + join costs more than a typical epoch;
   a hand-off to a running domain costs well under a microsecond.

   - Workers are spawned lazily by the call that first needs them, and
     the pool only grows.
   - A call owns the whole pool while it runs ([busy]); a call made
     meanwhile — nested inside a job, or from another domain — runs
     inline on its own domain. Results never depend on the worker
     count, so this changes nothing but host time.
   - The owner publishes a [job] with a fresh generation and [seats]
     for the helpers it wants. A worker that wakes late reads whatever
     job is current; every counter it touches belongs to that job
     record, and a stale record's index is already exhausted, so it
     can never run an item of a later job.
   - Both sides wait by spinning briefly, then parking on [lock]: idle
     workers burn no CPU between calls. Workers are never joined; a
     domain parked in Condition.wait does not hold up process exit. *)

let domains_of_env = function
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> 1)

let default_domains () = domains_of_env (Sys.getenv_opt "MININOVA_DOMAINS")

type job = {
  gen : int;
  seats : int Atomic.t;          (* helper places still open *)
  work : unit -> unit;           (* take items until none is left *)
}

type pool = {
  current : job Atomic.t;
  busy : bool Atomic.t;
  lock : Mutex.t;
  posted : Condition.t;          (* [current] changed *)
  finished : Condition.t;        (* some job's last item completed *)
  mutable size : int;            (* workers spawned; grown by the owner *)
}

let pool =
  { current = Atomic.make { gen = 0; seats = Atomic.make 0; work = ignore };
    busy = Atomic.make false;
    lock = Mutex.create ();
    posted = Condition.create ();
    finished = Condition.create ();
    size = 0 }

(* Polls before a waiter parks, about 0.1 ms on a 2020s x86 core:
   long enough to span the serial barrier between two Smp epochs,
   short enough that a worker left idle after a call soon stops
   costing CPU. *)
let spin_limit = 4096

let wait_until ?(spin = spin_limit) cond ready =
  let rec poll k =
    if not (ready ()) then
      if k > 0 then (Domain.cpu_relax (); poll (k - 1))
      else begin
        Mutex.lock pool.lock;
        while not (ready ()) do Condition.wait cond pool.lock done;
        Mutex.unlock pool.lock
      end
  in
  poll spin

(* Every [ready] flips before its [wake], and a parking waiter checks
   [ready] under [lock], so taking [lock] here loses no wake-up. *)
let wake cond =
  Mutex.lock pool.lock;
  Condition.broadcast cond;
  Mutex.unlock pool.lock

(* A worker the last job did not seat parks at once: a job that wanted
   fewer helpers than the pool holds leaves the rest asleep. *)
let rec worker spin last =
  wait_until ~spin pool.posted (fun () -> (Atomic.get pool.current).gen <> last);
  let job = Atomic.get pool.current in
  let seated = Atomic.fetch_and_add job.seats (-1) > 0 in
  if seated then job.work ();
  worker (if seated then spin_limit else 0) job.gen

let grow helpers =
  let gen = (Atomic.get pool.current).gen in
  while pool.size < helpers do
    ignore (Domain.spawn (fun () -> worker spin_limit gen) : unit Domain.t);
    pool.size <- pool.size + 1
  done

(* Jobs posted to the pool since the process started. Only the call
   that owns the pool bumps it. *)
let posted = Atomic.make 0

let handouts () = Atomic.get posted

(* The inline path keeps the parallel path's contract: every item runs,
   then the lowest-index failure is re-raised with its backtrace. *)
let iter_inline f items =
  let first = ref None in
  for i = 0 to Array.length items - 1 do
    match f (Array.unsafe_get items i) with
    | () -> ()
    | exception e ->
      (match !first with
       | None -> first := Some (e, Printexc.get_raw_backtrace ())
       | Some _ -> ())
  done;
  match !first with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let iter ?domains f items =
  let n = Array.length items in
  let wanted =
    match domains with Some d -> min n d | None -> min n (default_domains ())
  in
  if wanted <= 1 || not (Atomic.compare_and_set pool.busy false true) then
    iter_inline f items
  else begin
    let next = Atomic.make 0 and left = Atomic.make n in
    let errors = Array.make n None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try f items.(i)
         with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        if Atomic.fetch_and_add left (-1) = 1 then wake pool.finished;
        work ()
      end
    in
    (try grow (wanted - 1)
     with e -> Atomic.set pool.busy false; raise e);
    let gen = (Atomic.get pool.current).gen + 1 in
    Atomic.set pool.current { gen; seats = Atomic.make (wanted - 1); work };
    Atomic.incr posted;
    wake pool.posted;
    work ();
    wait_until pool.finished (fun () -> Atomic.get left = 0);
    Atomic.set pool.busy false;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

let map ?domains f items =
  let jobs = Array.of_list items in
  let slots = Array.make (Array.length jobs) None in
  iter ?domains (fun i -> slots.(i) <- Some (f jobs.(i)))
    (Array.init (Array.length jobs) Fun.id);
  Array.to_list (Array.map Option.get slots)

let run ?domains thunks = map ?domains (fun f -> f ()) thunks
