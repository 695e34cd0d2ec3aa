exception Reclaimed

type t = {
  task : int;
  iface : Addr.t;
  data : Addr.t;
  data_len : int;
  irq : int option;
  prr : int option;
  completion : Ucos.sem option;
  retries : int;
}

let data_in_off = Hw_task_manager.reserved_bytes

let zp os =
  let p = Ucos.port os in
  (p.Port.zynq, p.Port.priv)

(* Register words move as unsigned 32-bit ints. *)
let read_word os h i =
  let z, priv = zp os in
  try Zynq.vread_word z ~priv (h.iface + (4 * i))
  with Mmu.Fault _ -> raise Reclaimed

let write_word os h i v =
  let z, priv = zp os in
  try Zynq.vwrite_word z ~priv (h.iface + (4 * i)) v
  with Mmu.Fault _ -> raise Reclaimed

let acquire os ~task ?iface_vaddr ?data_vaddr
    ?(data_len = Guest_layout.default_data_section_len) ?(want_irq = false)
    ?(wait_ready = true) ?(max_tries = 100) ?(backoff = false) () =
  let port = Ucos.port os in
  let iface_vaddr = Option.value iface_vaddr ~default:(Guest_layout.task_iface_vaddr task) in
  let data_vaddr =
    Option.value data_vaddr ~default:Guest_layout.default_data_section
  in
  let retried = ref 0 in
  let finish status irq prr =
    let iface =
      if port.Port.priv then
        (* Native: the register group is reached through the identity
           mapping of the PL window. *)
        match prr with
        | Some p ->
          Address_map.prr_regs_base + (p * Address_map.prr_regs_stride)
        | None -> iface_vaddr
      else iface_vaddr
    in
    let completion =
      match irq with
      | Some i ->
        let s = Ucos.sem_create os 0 in
        Ucos.on_irq os i (fun () -> Ucos.sem_post os s);
        Some s
      | None -> None
    in
    let h = { task; iface; data = data_vaddr; data_len; irq; prr;
              completion; retries = !retried } in
    if status = Hyper.Hw_reconfig && wait_ready then begin
      (* Await the PCAP download by polling the status hypercall. *)
      let rec waitr n =
        if n <= 0 then Error "reconfiguration timeout"
        else begin
          Ucos.delay os 1;
          match port.Port.hw_status ~task with
          | Hyper.R_status { prr_ready = true; _ } -> Ok h
          | Hyper.R_status { consistent = false; _ } ->
            (* The manager reclaimed the allocation while we waited
               (download kept failing, or another client took it). *)
            Error "allocation lost during reconfiguration"
          | Hyper.R_status _ -> waitr (n - 1)
          | _ -> Error "status query failed"
        end
      in
      waitr 500
    end
    else Ok h
  in
  let rec attempt tries =
    match
      port.Port.hw_request ~task ~iface_vaddr ~data_vaddr ~data_len ~want_irq
    with
    | Hyper.R_error e -> Error e
    | Hyper.R_hw { status = Hyper.Hw_bad_task; _ } -> Error "unknown task id"
    | Hyper.R_hw { status = Hyper.Hw_fault; _ } -> Error "manager fault"
    | Hyper.R_hw { status = Hyper.Hw_denied; _ } ->
      (* Static partitioning: no pinned PRR can host the task. The
         denial is permanent for the current layout, so never retry. *)
      Error "denied by static partition"
    | Hyper.R_hw { status = Hyper.Hw_busy; _ } ->
      if tries <= 0 then Error "hardware busy"
      else begin
        incr retried;
        let d =
          if backoff then
            (* Exponential backoff, capped: 1, 2, 4, 8, 16, 16 … ticks. *)
            min 16 (1 lsl min 4 (max_tries - tries))
          else 1
        in
        Ucos.delay os d;
        attempt (tries - 1)
      end
    | Hyper.R_hw { status; irq; prr } -> finish status irq prr
    | _ -> Error "unexpected response"
  in
  attempt max_tries

let release os h =
  let port = Ucos.port os in
  ignore (port.Port.hw_release ~task:h.task)

let start os h ~src_off ~dst_off ~len ~param =
  write_word os h Prr.Reg.src_offset src_off;
  write_word os h Prr.Reg.dst_offset dst_off;
  write_word os h Prr.Reg.len len;
  write_word os h Prr.Reg.param param;
  let ctrl = 1 lor (if h.irq <> None then 2 else 0) in
  write_word os h Prr.Reg.ctrl ctrl

type outcome = [ `Done | `Violation | `Fault | `Reclaimed ]

let classify status =
  if status land 0b10000 <> 0 then Some `Fault
  else if status land 0b100 <> 0 then Some `Violation
  else if status land 0b10 <> 0 then Some `Done
  else None

let wait_done os h =
  try
    match h.completion with
    | Some s ->
      let rec wait n =
        if n <= 0 then `Violation
        else begin
          match Ucos.sem_pend os s ~timeout:50 () with
          | `Ok | `Timeout ->
            (* Read (and clear) the status bits to classify. *)
            (match classify (read_word os h Prr.Reg.status) with
             | Some o -> o
             | None -> wait (n - 1))
        end
      in
      wait 100
    | None ->
      let rec poll n =
        if n <= 0 then `Violation
        else
          match classify (read_word os h Prr.Reg.status) with
          | Some o -> o
          | None ->
            Ucos.delay os 1;
            poll (n - 1)
      in
      poll 2000
  with Reclaimed -> `Reclaimed

let inconsistent os h =
  let z, priv = zp os in
  Zynq.vread_word z ~priv (h.data + Hw_task_manager.flag_offset) <> 0

(* Sample movement between guest arrays and the data section. Samples
   travel as their IEEE-754 single bit patterns, staged through a
   small int buffer and moved as word runs ({!Zynq.vwrite_words}), so
   no float or int32 is boxed per sample and each page translates
   once. *)

let f32_bits x = Int32.to_int (Int32.bits_of_float x)
let f32_of_bits w = Int32.float_of_bits (Int32.of_int w)

(* [n] words between the data section at [off] and the caller, moved
   [stage_words] at a time (small enough to stay in the minor heap):
   [fill buf k m] stages words [k .. k+m-1] before a store, [take buf k
   m] consumes them after a load. *)
let stage_words = 256

let store_words os h ~off n fill =
  let z, priv = zp os in
  let buf = Array.make (min n stage_words) 0 in
  let k = ref 0 in
  while !k < n do
    let m = min (n - !k) stage_words in
    fill buf !k m;
    Zynq.vwrite_words z ~priv (h.data + off + (4 * !k)) buf 0 m;
    k := !k + m
  done

let load_words os h ~off n take =
  let z, priv = zp os in
  let buf = Array.make (min n stage_words) 0 in
  let k = ref 0 in
  while !k < n do
    let m = min (n - !k) stage_words in
    Zynq.vread_words z ~priv (h.data + off + (4 * !k)) buf 0 m;
    take buf !k m;
    k := !k + m
  done

(* Complex samples interleave: word [2i] is [re.(i)], [2i + 1] is
   [im.(i)]. *)
let write_complex os h ~off re im =
  store_words os h ~off (2 * Array.length re) (fun buf k m ->
      for j = 0 to m - 1 do
        let w = k + j in
        buf.(j) <- f32_bits (if w land 1 = 0 then re.(w lsr 1) else im.(w lsr 1))
      done)

let read_complex os h ~off n =
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  load_words os h ~off (2 * n) (fun buf k m ->
      for j = 0 to m - 1 do
        let w = k + j in
        if w land 1 = 0 then re.(w lsr 1) <- f32_of_bits buf.(j)
        else im.(w lsr 1) <- f32_of_bits buf.(j)
      done);
  (re, im)

let write_bits os h ~off bits =
  let z, priv = zp os in
  Array.iteri (fun i b -> Zynq.vwrite_u8 z ~priv (h.data + off + i) b) bits

let read_bits os h ~off n =
  let z, priv = zp os in
  Array.init n (fun i -> Zynq.vread_u8 z ~priv (h.data + off + i))

let run_job os h ~write_in ~in_bytes ~out_bytes ~len ~param ~read_out =
  let port = Ucos.port os in
  let dst_off = Addr.align_up (data_in_off + in_bytes) 64 in
  if dst_off + out_bytes > h.data_len then Error "data section too small"
  else begin
    try
      write_in data_in_off;
      port.Port.cache_clean ~vaddr:h.data ~len:(data_in_off + in_bytes);
      start os h ~src_off:data_in_off ~dst_off ~len ~param;
      match wait_done os h with
      | `Done ->
        port.Port.cache_invalidate ~vaddr:(h.data + dst_off) ~len:out_bytes;
        Ok (read_out dst_off)
      | `Violation -> Error "hwMMU violation or job rejected"
      | `Fault -> Error "device fault"
      | `Reclaimed -> Error "task reclaimed by another client"
    with Reclaimed -> Error "task reclaimed by another client"
  end

let run_fft os h ~inverse ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then Error "re/im length mismatch"
  else
    run_job os h
      ~write_in:(fun off -> write_complex os h ~off re im)
      ~in_bytes:(8 * n) ~out_bytes:(8 * n) ~len:n
      ~param:(if inverse then 1 else 0)
      ~read_out:(fun off -> read_complex os h ~off n)

let run_qam_mod os h ~order ~bits =
  let bps = Qam.bits_per_symbol (Qam.order_of_int order) in
  let nb = Array.length bits in
  if nb = 0 || nb mod bps <> 0 then Error "bit count not a symbol multiple"
  else begin
    let nsym = nb / bps in
    run_job os h
      ~write_in:(fun off -> write_bits os h ~off bits)
      ~in_bytes:nb ~out_bytes:(8 * nsym) ~len:nb ~param:0
      ~read_out:(fun off -> read_complex os h ~off nsym)
  end

let write_reals os h ~off xs =
  store_words os h ~off (Array.length xs) (fun buf k m ->
      for j = 0 to m - 1 do
        buf.(j) <- f32_bits xs.(k + j)
      done)

let read_reals os h ~off n =
  let xs = Array.make n 0.0 in
  load_words os h ~off n (fun buf k m ->
      for j = 0 to m - 1 do
        xs.(k + j) <- f32_of_bits buf.(j)
      done);
  xs

let fir_param response =
  let bit, fc =
    match response with
    | Fir.Lowpass fc -> (0, fc)
    | Fir.Highpass fc -> (1, fc)
  in
  let raw = max 1 (min 127 (int_of_float (Float.round (fc *. 256.0)))) in
  bit lor (raw lsl 8)

let run_fir os h ~response ~samples =
  let n = Array.length samples in
  if n = 0 then Error "empty input"
  else
    run_job os h
      ~write_in:(fun off -> write_reals os h ~off samples)
      ~in_bytes:(4 * n) ~out_bytes:(4 * n) ~len:n ~param:(fir_param response)
      ~read_out:(fun off -> read_reals os h ~off n)

let run_scramble os h ~seed ~data =
  let n = Array.length data in
  if n = 0 then Error "empty input"
  else
    run_job os h
      ~write_in:(fun off -> write_bits os h ~off data)
      ~in_bytes:n ~out_bytes:n ~len:n ~param:seed
      ~read_out:(fun off -> read_bits os h ~off n)

let run_digest os h ~tweak ~data =
  let n = Array.length data in
  if n = 0 || n mod 64 <> 0 then Error "input not a 64-byte multiple"
  else
    run_job os h
      ~write_in:(fun off -> write_bits os h ~off data)
      ~in_bytes:n ~out_bytes:32 ~len:n ~param:tweak
      ~read_out:(fun off -> read_bits os h ~off 32)

let run_matmul os h ~a =
  let len = Array.length a in
  if len = 0 then Error "empty input"
  else
    run_job os h
      ~write_in:(fun off -> write_reals os h ~off a)
      ~in_bytes:(4 * len) ~out_bytes:(4 * len) ~len ~param:0
      ~read_out:(fun off -> read_reals os h ~off len)

let run_qam_demod os h ~order ~i ~q =
  let bps = Qam.bits_per_symbol (Qam.order_of_int order) in
  let nsym = Array.length i in
  if Array.length q <> nsym || nsym = 0 then Error "bad I/Q input"
  else begin
    let nb = nsym * bps in
    run_job os h
      ~write_in:(fun off -> write_complex os h ~off i q)
      ~in_bytes:(8 * nsym) ~out_bytes:nb ~len:nb ~param:1
      ~read_out:(fun off -> read_bits os h ~off nb)
  end
