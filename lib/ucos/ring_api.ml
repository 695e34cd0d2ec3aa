type t = {
  sq : Addr.t;
  cq : Addr.t;
  entries : int;
  mutable chead : int;
  words : int array;
}

type cqe = {
  tag : int;
  status : int;
  prr : int option;
  irq : int option;
}

let status_success = 0
let status_reconfig = 1
let status_busy = 2

let mask32 = 0xFFFFFFFF

let rd p a = Zynq.vread_word p.Port.zynq ~priv:p.Port.priv a
let wr p a v = Zynq.vwrite_word p.Port.zynq ~priv:p.Port.priv a v

let setup p ?(entries = Guest_layout.ring_max_entries) ?(cvirq_budget = 8) ()
  =
  match p.Port.ring_setup ~entries ~cvirq_budget with
  | Hyper.R_ring { sq_vaddr; cq_vaddr; entries } ->
    Ok { sq = sq_vaddr; cq = cq_vaddr; entries; chead = 0;
         words = Array.make Guest_layout.ring_desc_words 0 }
  | Hyper.R_error e -> Error e
  | _ -> Error "ring: unexpected setup response"

(* Header fields are always reread from the shared pages rather than
   shadowed guest-side: the kernel moves its indices between our
   accesses (and the soak engine's host-side burst writer moves the
   guest tail), so cached copies would go stale. *)
let cq_tail p r = rd p r.cq

let completions_pending p r = (cq_tail p r - r.chead) land mask32

let enqueue p r ~op ~task ?iface_vaddr ?data_vaddr
    ?(data_len = Guest_layout.default_data_section_len)
    ?(want_irq = false) ~tag () =
  let w = r.words in
  (* The SQ tail and head, as one two-word run. *)
  Zynq.vread_words p.Port.zynq ~priv:p.Port.priv r.sq w 0 2;
  let tail = w.(0) in
  if ((tail - w.(1)) land mask32) >= r.entries then false
  else begin
    let slot = tail land (r.entries - 1) in
    let d =
      r.sq + Guest_layout.ring_hdr_size + (slot * Guest_layout.ring_desc_size)
    in
    w.(0) <- (match op with `Request -> 0 | `Release -> 1);
    w.(1) <- task;
    w.(2) <-
      (match iface_vaddr with
       | Some v -> v
       | None -> Guest_layout.task_iface_vaddr task);
    w.(3) <-
      (match data_vaddr with
       | Some v -> v
       | None -> Guest_layout.default_data_section);
    w.(4) <- data_len;
    w.(5) <- (if want_irq then 1 else 0);
    w.(6) <- tag;
    Zynq.vwrite_words p.Port.zynq ~priv:p.Port.priv d w 0
      Guest_layout.ring_desc_words;
    (* Publish: the tail store is the guest's half of the protocol. *)
    wr p r.sq ((tail + 1) land mask32);
    true
  end

let doorbell p r =
  ignore r;
  match p.Port.ring_doorbell () with
  | Hyper.R_int n -> Ok n
  | Hyper.R_error e -> Error e
  | _ -> Error "ring: unexpected doorbell response"

let poll p r =
  if completions_pending p r = 0 then None
  else begin
    let slot = r.chead land (r.entries - 1) in
    let c =
      r.cq + Guest_layout.ring_hdr_size + (slot * Guest_layout.ring_cqe_size)
    in
    let w = r.words in
    Zynq.vread_words p.Port.zynq ~priv:p.Port.priv c w 0
      (Guest_layout.ring_cqe_size / 4);
    let tag = w.(0) and status = w.(1) and prr1 = w.(2) and irq1 = w.(3) in
    r.chead <- (r.chead + 1) land mask32;
    (* Consumption notice: frees the CQE slot for the kernel. *)
    wr p (r.cq + 4) r.chead;
    Some
      { tag; status;
        prr = (if prr1 = 0 then None else Some (prr1 - 1));
        irq = (if irq1 = 0 then None else Some (irq1 - 1)) }
  end

let drain_completions p r =
  let rec go acc =
    match poll p r with None -> List.rev acc | Some c -> go (c :: acc)
  in
  go []
