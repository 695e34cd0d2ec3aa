(* A shared host changes speed, by up to 1.8x for anything from a
   fraction of a second to a minute, as other tenants load it; process CPU time
   follows, because a slowed vCPU still counts as running. This module
   times a fixed reference computation that shares no code with the
   simulator, in short slices spread over a measurement, so the
   measurement can be rescaled to the speed the host has when quiet.

   A slice mixes the two kinds of host work the simulator does: branchy
   integer arithmetic (a xorshift stream steering a counter) and
   short-lived allocation through a hash table small enough that its
   entries die young instead of growing the major heap. *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let arithmetic () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    if !x land 3 = 0 then incr acc
    else if !x land 5 = 1 then acc := !acc - 3
    else acc := !acc lxor !x
  done;
  !acc

let allocation () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 15_000 do
    Hashtbl.replace h (i land 1023) (i, [ i ]);
    ignore (Sys.opaque_identity (Hashtbl.find_opt h ((i * 7) land 1023)))
  done;
  Hashtbl.length h

let slice () =
  let t0 = cpu_now () in
  ignore (Sys.opaque_identity (arithmetic ()));
  ignore (Sys.opaque_identity (allocation ()));
  cpu_now () -. t0

(* [slice ()] on the 2-core x86-64 development host at its quiet speed:
   the fastest tenth of 1000 slices on an idle VM. *)
let quiet_slice_seconds = 0.0025

type t = { mutable slices : int; mutable slice_cpu : float }

let none = { slices = 0; slice_cpu = 0.0 }
let slice_cpu t = t.slice_cpu

let speed t =
  if t.slices = 0 then 1.0
  else quiet_slice_seconds /. (t.slice_cpu /. float_of_int t.slices)

let add t =
  t.slices <- t.slices + 1;
  t.slice_cpu <- t.slice_cpu +. slice ()

(* Process CPU seconds between two slices run from the signal handler.
   With two domains either may run the handler; two handlers at once
   would need two timer expiries within one 2.5 ms slice. *)
let period = 0.1

let sampled f =
  let t = { slices = 0; slice_cpu = 0.0 } in
  add t;
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle (fun _ -> add t)) in
  let timer = { Unix.it_interval = period; it_value = period } in
  ignore (Unix.setitimer Unix.ITIMER_PROF timer);
  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigprof previous
  in
  let result = Fun.protect ~finally:stop f in
  add t;
  (result, t)
