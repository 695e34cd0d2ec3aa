type samples = { mutable buf : int array; mutable n : int }

let samples () = { buf = Array.make 256 0; n = 0 }

let push s v =
  if s.n = Array.length s.buf then begin
    let bigger = Array.make (2 * s.n) 0 in
    Array.blit s.buf 0 bigger 0 s.n;
    s.buf <- bigger
  end;
  s.buf.(s.n) <- v;
  s.n <- s.n + 1

let sorted l =
  let a = Array.concat (List.map (fun s -> Array.sub s.buf 0 s.n) l) in
  Array.sort compare a;
  a

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable mismatches : int;
  mutable abi_cycles : int;
  latency : samples;
}

let tally () =
  { attempted = 0; ok = 0; mismatches = 0; abi_cycles = 0;
    latency = samples () }

let settle t ~ok ~latency =
  if ok then t.ok <- t.ok + 1;
  push t.latency latency

let wrap_port lc tally (p : Port.t) =
  let clock = p.Port.zynq.Zynq.clock in
  let sync label f =
    let t0 = Clock.now clock in
    let r = Layer_clock.timed lc label f in
    tally.abi_cycles <- tally.abi_cycles + (Clock.now clock - t0);
    r
  in
  let other f = sync Layer_clock.hyper_other f in
  { p with
    Port.pause = (fun () -> Layer_clock.suspend lc p.Port.pause);
    idle_wait = (fun () -> Layer_clock.suspend lc p.Port.idle_wait);
    start_tick = (fun i -> other (fun () -> p.Port.start_tick i));
    stop_tick = (fun () -> other p.Port.stop_tick);
    enable_irq = (fun irq -> other (fun () -> p.Port.enable_irq irq));
    uart = (fun s -> other (fun () -> p.Port.uart s));
    cache_clean =
      (fun ~vaddr ~len -> other (fun () -> p.Port.cache_clean ~vaddr ~len));
    cache_invalidate =
      (fun ~vaddr ~len -> other (fun () -> p.Port.cache_invalidate ~vaddr ~len));
    hw_request =
      (fun ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq ->
         sync Layer_clock.hyper_request (fun () ->
             p.Port.hw_request ~task ~iface_vaddr ~data_vaddr ~data_len
               ~want_irq));
    hw_release = (fun ~task -> other (fun () -> p.Port.hw_release ~task));
    hw_status = (fun ~task -> other (fun () -> p.Port.hw_status ~task));
    ring_setup =
      (fun ~entries ~cvirq_budget ->
         other (fun () -> p.Port.ring_setup ~entries ~cvirq_budget));
    ring_doorbell =
      (fun () -> sync Layer_clock.hyper_doorbell p.Port.ring_doorbell);
    send = (fun ~dest payload -> other (fun () -> p.Port.send ~dest payload));
    recv = (fun () -> other p.Port.recv) }

let deck rng items =
  let cards = Array.copy items in
  let next = ref (Array.length cards) in
  fun () ->
    if !next = Array.length cards then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let c = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- c
      done;
      next := 0
    end;
    incr next;
    cards.(!next - 1)

let guest_main lc body genv = Layer_clock.timed lc Layer_clock.guest (fun () -> body genv)

type outcome = Verified | Mismatch | Failed | Unverifiable

let verified_job lc os rng h kind =
  let wl f = Layer_clock.timed lc Layer_clock.workloads f in
  let check = function
    | Ok true -> Verified
    | Ok false -> Mismatch
    | Error _ -> Failed
  in
  match kind with
  | Task_kind.Qam order ->
    let o = Qam.order_of_int order in
    let bits =
      wl (fun () -> Array.init (Qam.bits_per_symbol o * 32) (fun _ -> Rng.int rng 2))
    in
    check
      (Result.map
         (fun (i, q) -> wl (fun () -> Qam.demodulate o ~i ~q = bits))
         (Hw_task_api.run_qam_mod os h ~order ~bits))
  | (Task_kind.Fft points | Task_kind.Fft_stream points) when points <= 1024 ->
    let re = wl (fun () -> Array.init points (fun i -> sin (0.1 *. float_of_int i))) in
    let im = Array.make points 0.0 in
    check
      (Result.map
         (fun (hr, hi) ->
            wl (fun () ->
                let sr = Array.copy re and si = Array.copy im in
                Fft.transform sr si;
                Float.max (Fft.max_error hr sr) (Fft.max_error hi si)
                <= 0.05 *. float_of_int points))
         (Hw_task_api.run_fft os h ~inverse:false ~re ~im))
  | Task_kind.Scramble _ ->
    (* Self-inverse: scrambling twice with one seed restores the input. *)
    let data = wl (fun () -> Array.init 256 (fun _ -> Rng.int rng 256)) in
    check
      (Result.bind (Hw_task_api.run_scramble os h ~seed:0x1D5B ~data)
         (fun once ->
            Result.map
              (fun back -> wl (fun () -> back = data))
              (Hw_task_api.run_scramble os h ~seed:0x1D5B ~data:once)))
  | Task_kind.Digest _ ->
    (* Deterministic: one block digests to the same bytes twice. *)
    let data = Array.init 128 (fun i -> (i * 37) land 0xff) in
    check
      (Result.bind (Hw_task_api.run_digest os h ~tweak:7 ~data) (fun a ->
           Result.map (fun b -> a = b) (Hw_task_api.run_digest os h ~tweak:7 ~data)))
  | Task_kind.Matmul n when n <= 16 ->
    let a = wl (fun () -> Array.init (n * n) (fun i -> sin (0.3 *. float_of_int i))) in
    check
      (Result.map
         (fun c ->
            wl (fun () ->
                let err = ref 0.0 in
                for r = 0 to n - 1 do
                  for col = 0 to n - 1 do
                    let acc = ref 0.0 in
                    for k = 0 to n - 1 do
                      acc := !acc +. (a.((r * n) + k) *. a.((k * n) + col))
                    done;
                    err := Float.max !err (Float.abs (c.((r * n) + col) -. !acc))
                  done
                done;
                !err <= 0.01))
         (Hw_task_api.run_matmul os h ~a))
  | Task_kind.Fft _ | Task_kind.Fft_stream _ | Task_kind.Fir _
  | Task_kind.Matmul _ ->
    Unverifiable
