(* Tests for GIC, timers, UART, SD, and IRQ numbering. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_irq_id_pl_mapping () =
  check ci "pl 0 is SPI 61" 61 (Irq_id.pl 0);
  check ci "pl 7 is SPI 68" 68 (Irq_id.pl 7);
  check ci "pl 8 is SPI 84" 84 (Irq_id.pl 8);
  check ci "pl 15 is SPI 91" 91 (Irq_id.pl 15);
  for i = 0 to Irq_id.pl_count - 1 do
    check (Alcotest.option ci) "roundtrip" (Some i) (Irq_id.pl_index (Irq_id.pl i))
  done;
  check (Alcotest.option ci) "non-PL id" None (Irq_id.pl_index Irq_id.devcfg)

let test_gic_basic () =
  let g = Gic.create () in
  check cb "quiet" false (Gic.line_asserted g);
  Gic.raise_irq g 40;
  check cb "pending but masked" false (Gic.line_asserted g);
  Gic.enable g 40;
  check cb "asserted" true (Gic.line_asserted g);
  check (Alcotest.option ci) "ack" (Some 40) (Gic.ack g);
  check cb "ack clears pending" false (Gic.is_pending g 40);
  check cb "active blocks line" false (Gic.line_asserted g);
  Gic.eoi g 40;
  check cb "still quiet" false (Gic.line_asserted g)

let test_gic_tie_break () =
  let g = Gic.create () in
  Gic.enable g 30;
  Gic.enable g 40;
  Gic.raise_irq g 40;
  Gic.raise_irq g 30;
  check (Alcotest.option ci) "equal priority: lowest id" (Some 30) (Gic.ack g);
  check (Alcotest.option ci) "then the other" (Some 40) (Gic.ack g);
  check cb "spurious after drain" true (Gic.ack g = None)

let test_gic_mask_helper () =
  let g = Gic.create () in
  Gic.enable g 10;
  Gic.enable g 20;
  Gic.set_enabled_mask g ~keep:[ 29; 40 ] ~enable:[ 61 ];
  check (Alcotest.list ci) "mask replaced" [ 29; 40; 61 ] (Gic.enabled_list g);
  check cb "pending survives masking" true
    (Gic.raise_irq g 10;
     Gic.is_pending g 10 && not (Gic.line_asserted g))

let test_gic_range_check () =
  let g = Gic.create () in
  Alcotest.check_raises "bad id" (Invalid_argument "Gic: IRQ id out of range")
    (fun () -> Gic.enable g 200)

let test_private_timer_periodic () =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let g = Gic.create () in
  Gic.enable g Irq_id.private_timer;
  let t = Private_timer.create q g in
  Private_timer.start t ~interval:100;
  check cb "running" true (Private_timer.running t);
  let fired = ref 0 in
  for _ = 1 to 5 do
    ignore (Event_queue.advance_until q (Clock.now clock + 100));
    if Gic.is_pending g Irq_id.private_timer then begin
      incr fired;
      (* Taken the way the kernel's IRQ path takes it. *)
      ignore (Gic.ack g);
      Gic.eoi g Irq_id.private_timer
    end
  done;
  check ci "five expiries" 5 !fired

let test_private_timer_stop () =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let g = Gic.create () in
  let t = Private_timer.create q g in
  Private_timer.start t ~interval:100;
  Private_timer.stop t;
  ignore (Event_queue.advance_until q 1000);
  check cb "no pending after stop" false (Gic.is_pending g Irq_id.private_timer);
  check cb "not running" false (Private_timer.running t)

let test_private_timer_restart () =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let g = Gic.create () in
  let t = Private_timer.create q g in
  Private_timer.start t ~interval:100;
  Private_timer.start t ~interval:37;
  (* Old schedule invalidated: first expiry at 37, not 100. *)
  ignore (Event_queue.advance_until q 37);
  check cb "new interval expiry" true (Gic.is_pending g Irq_id.private_timer);
  check (Alcotest.option ci) "interval readable" (Some 37)
    (Private_timer.interval t)

let test_uart () =
  let u = Uart.create () in
  Uart.write_string u "hello";
  Uart.write_byte u '!';
  check Alcotest.string "captured" "hello!" (Uart.contents u)

let test_sd_card () =
  let sd = Sd_card.create ~blocks:16 () in
  let b = Bytes.make Sd_card.block_size 'z' in
  Sd_card.write_block sd 3 b;
  check cb "roundtrip" true (Sd_card.read_block sd 3 = b);
  check cb "unwritten zeroed" true
    (Sd_card.read_block sd 4 = Bytes.make Sd_card.block_size '\000');
  Alcotest.check_raises "range" (Invalid_argument "Sd_card: block out of range")
    (fun () -> ignore (Sd_card.read_block sd 16));
  Alcotest.check_raises "size"
    (Invalid_argument "Sd_card.write_block: buffer must be one block")
    (fun () -> Sd_card.write_block sd 0 (Bytes.create 5));
  (* Mutation of the returned buffer must not leak into the store. *)
  let r = Sd_card.read_block sd 3 in
  Bytes.set r 0 '?';
  check cb "store isolated" true (Bytes.get (Sd_card.read_block sd 3) 0 = 'z')

(* The GIC's deliverable count against a reference model that keeps
   the plain 96-source scan: after every random raise, enable, ack,
   EOI and VM-switch mask, the nIRQ line and every ack must agree with
   the scan. Ids are drawn mostly from a few hot sources, so sources
   collide, tie and go active while pending again. *)
module Gic_model = struct
  type t = {
    enabled : bool array;
    pending : bool array;
    active : bool array;
  }

  let create () =
    { enabled = Array.make Irq_id.max_irq false;
      pending = Array.make Irq_id.max_irq false;
      active = Array.make Irq_id.max_irq false }

  let best m =
    let found = ref None in
    for irq = Irq_id.max_irq - 1 downto 0 do
      if m.pending.(irq) && m.enabled.(irq) && not m.active.(irq) then
        found := Some irq
    done;
    !found

  let ack m =
    match best m with
    | None -> None
    | Some irq ->
      m.pending.(irq) <- false;
      m.active.(irq) <- true;
      Some irq
end

let prop_gic_matches_scan =
  let irq =
    QCheck2.Gen.(
      oneof
        [ int_bound (Irq_id.max_irq - 1); oneofl [ 29; 31; 40; 61; 62; 84 ] ])
  in
  let op = QCheck2.Gen.(triple (int_bound 5) irq (int_bound 2)) in
  QCheck2.Test.make ~name:"gic line and ack match a full scan" ~count:300
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
       let g = Gic.create () and m = Gic_model.create () in
       List.for_all
         (fun (code, irq, x) ->
            let acked =
              match code with
              | 0 ->
                Gic.raise_irq g irq;
                m.pending.(irq) <- true;
                true
              | 1 ->
                Gic.enable g irq;
                m.enabled.(irq) <- true;
                true
              | 2 | 3 -> Gic.ack g = Gic_model.ack m
              | 4 ->
                Gic.eoi g irq;
                m.active.(irq) <- false;
                true
              | _ ->
                (* A VM switch: keep one source, enable up to two more. *)
                let keep = [ 29 ] and enable = List.init x (fun i -> irq + i) in
                let enable = List.filter (fun i -> i < Irq_id.max_irq) enable in
                Gic.set_enabled_mask g ~keep ~enable;
                Array.fill m.enabled 0 Irq_id.max_irq false;
                List.iter (fun i -> m.enabled.(i) <- true) (keep @ enable);
                true
            in
            acked && Gic.line_asserted g = (Gic_model.best m <> None))
         ops)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "devices",
    [ t "irq id pl mapping" test_irq_id_pl_mapping;
      t "gic basic" test_gic_basic;
      t "gic tie break" test_gic_tie_break;
      t "gic mask helper" test_gic_mask_helper;
      t "gic range check" test_gic_range_check;
      QCheck_alcotest.to_alcotest prop_gic_matches_scan;
      t "private timer periodic" test_private_timer_periodic;
      t "private timer stop" test_private_timer_stop;
      t "private timer restart" test_private_timer_restart;
      t "uart" test_uart;
      t "sd card" test_sd_card ] )
