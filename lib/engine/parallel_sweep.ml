(* The one work-handout loop: independent jobs on OCaml domains.

   Used for whole simulated worlds (the harness sweeps: every job
   builds its own Zynq.create and everything above it) and for the
   per-pCPU nodes of one Smp epoch. Either way the jobs share nothing
   — the effect handlers behind Hyper/Ucos are per-fiber — so an
   atomic index hands them out and the calling domain takes part.
   Errors land in per-job slots and the lowest-index one is re-raised
   with its original backtrace once every worker has joined, so the
   outcome never depends on how the domains interleave. *)

let domains_of_env = function
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> 1)

let default_domains () = domains_of_env (Sys.getenv_opt "MININOVA_DOMAINS")

let iter ?domains f items =
  let n = Array.length items in
  let wanted =
    match domains with Some d -> min n d | None -> min n (default_domains ())
  in
  if wanted <= 1 then Array.iter f items
  else begin
    let next = Atomic.make 0 in
    let errors = Array.make n None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try f items.(i)
         with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let extras = List.init (wanted - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join extras;
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
