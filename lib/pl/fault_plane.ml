type fault =
  | Pcap_corrupt
  | Pcap_abort
  | Ip_hang
  | Dma_error
  | Hwmmu_spurious

let fault_name = function
  | Pcap_corrupt -> "pcap-corrupt"
  | Pcap_abort -> "pcap-abort"
  | Ip_hang -> "ip-hang"
  | Dma_error -> "dma-error"
  | Hwmmu_spurious -> "hwmmu-spurious"

let all_faults = [Pcap_corrupt; Pcap_abort; Ip_hang; Dma_error; Hwmmu_spurious]

let fault_index = function
  | Pcap_corrupt -> 0
  | Pcap_abort -> 1
  | Ip_hang -> 2
  | Dma_error -> 3
  | Hwmmu_spurious -> 4

type entry = {
  at : Cycles.t;
  prr : int;
  fault : fault;
}

let log_cap = 4096

type t = {
  mutable rng : Rng.t;
  mutable rate : float;
  counts : int array;
  log : entry Queue.t;
  mutable dropped : int;
}

let create ?(seed = 0) ?(rate = 0.0) () =
  { rng = Rng.create ~seed;
    rate;
    counts = Array.make (List.length all_faults) 0;
    log = Queue.create ();
    dropped = 0 }

let arm t ~seed ~rate =
  t.rng <- Rng.create ~seed;
  t.rate <- rate;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Queue.clear t.log;
  t.dropped <- 0

let draw t ~at ~prr ~candidates =
  (* The disabled check must come first and be RNG-free: fault-free
     runs must not consume randomness or pay for the plane. *)
  if t.rate <= 0.0 || candidates = [] then None
  else if Rng.float t.rng 1.0 >= t.rate then None
  else begin
    let n = List.length candidates in
    let fault = List.nth candidates (Rng.int t.rng n) in
    t.counts.(fault_index fault) <- t.counts.(fault_index fault) + 1;
    if Queue.length t.log >= log_cap then begin
      ignore (Queue.pop t.log);
      t.dropped <- t.dropped + 1
    end;
    Queue.push { at; prr; fault } t.log;
    Some fault
  end

let injected t fault = t.counts.(fault_index fault)

let total_injected t = Array.fold_left ( + ) 0 t.counts

let drain t =
  let es = List.rev (Queue.fold (fun acc e -> e :: acc) [] t.log) in
  Queue.clear t.log;
  es

let log_dropped t = t.dropped
