(* Model-based property tests: random operation sequences executed
   against both the real component and a trivially-correct reference
   model, then compared. These catch state-machine bugs that
   example-based tests miss. *)

let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Event queue vs a sorted association list.                           *)

type eq_op =
  | Eq_schedule of int   (* delay *)
  | Eq_cancel of int     (* index into scheduled ids *)
  | Eq_advance of int    (* time step *)

let gen_eq_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (oneof
         [ map (fun d -> Eq_schedule (d land 0xFF)) int;
           map (fun i -> Eq_cancel (abs i)) int;
           map (fun d -> Eq_advance (1 + (d land 0x3F))) int ]))

(* Runs an op sequence against both the real queue and the model.
   Besides the firing order, every step compares the pending count
   (which caught a live-counter undercount on cancel-after-fire) and
   requires [Event_queue.self_check] to stay clean. *)
let eq_model_holds ops =
  let clock = Clock.create () in
  let q = Event_queue.create clock in
  let fired_real = ref [] in
  let fired_model = ref [] in
  (* model: (time, tag, cancelled ref) in insertion order *)
  let model = ref [] in
  let handles = ref [] in
  let next_tag = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
       (match op with
        | Eq_schedule d ->
          let tag = !next_tag in
          incr next_tag;
          let id =
            Event_queue.schedule_after q d (fun () ->
                fired_real := tag :: !fired_real)
          in
          let cancelled = ref false in
          model := !model @ [ (Clock.now clock + d, tag, cancelled) ];
          handles := !handles @ [ (id, cancelled) ]
        | Eq_cancel i ->
          if !handles <> [] then begin
            let id, cancelled = List.nth !handles (i mod List.length !handles) in
            Event_queue.cancel q id;
            (* cancel after the event fired (it left the model) is a
               no-op; marking the ref is harmless either way *)
            cancelled := true
          end
        | Eq_advance d ->
          let target = Clock.now clock + d in
          (* model: fire due, stable by (time, insertion order) *)
          let due, rest =
            List.partition (fun (t, _, _) -> t <= target) !model
          in
          let due =
            List.stable_sort (fun (t1, g1, _) (t2, g2, _) ->
                compare (t1, g1) (t2, g2))
              due
          in
          List.iter
            (fun (_, tag, cancelled) ->
               if not !cancelled then fired_model := tag :: !fired_model)
            due;
          model := rest;
          ignore (Event_queue.advance_until q target));
       let model_pending =
         List.length (List.filter (fun (_, _, c) -> not !c) !model)
       in
       if Event_queue.pending q <> model_pending then ok := false;
       if Event_queue.self_check q <> [] then ok := false)
    ops;
  !ok && List.rev !fired_real = List.rev !fired_model

let prop_event_queue_model =
  QCheck2.Test.make ~name:"Event_queue matches sorted-list model" ~count:200
    gen_eq_ops eq_model_holds

(* ------------------------------------------------------------------ *)
(* Cache vs an explicit per-set LRU list model.                        *)

type cache_op =
  | C_access of int * bool
  | C_inval of int
  | C_clean of int
  | C_inval_all
  | C_clean_all

(* A case names its lines by index into a pool of twelve: six line
   numbers drawn from the whole 28-bit line space (byte addresses up to
   2^33), each paired with the line that differs from it only in its
   top bit (the same set, the same low tag bits). Full invalidations
   and cleans are frequent enough that the generations pass 16 in the
   longer cases, so a tag word stored in fewer bits than it needs
   stops matching. *)
let gen_cache_case =
  QCheck2.Gen.(
    let line = int_bound 11 in
    pair
      (list_repeat 6 (int_bound ((1 lsl 28) - 1)))
      (list_size (int_range 1 200)
         (frequency
            [ (6, map2 (fun i w -> C_access (i, w)) line bool);
              (1, map (fun i -> C_inval i) line);
              (1, map (fun i -> C_clean i) line);
              (2, return C_inval_all);
              (1, return C_clean_all) ])))

(* Reference: per set, a list of (line_addr, dirty) in LRU order
   (head = least recent). *)
module Cache_model = struct
  type t = {
    sets : int;
    ways : int;
    mutable state : (int * bool) list array;
  }

  let create ~sets ~ways = { sets; ways; state = Array.make sets [] }

  let set_of t la = la land (t.sets - 1)

  let access t la write =
    let s = set_of t la in
    let l = t.state.(s) in
    match List.assoc_opt la l with
    | Some dirty ->
      t.state.(s) <-
        List.filter (fun (a, _) -> a <> la) l @ [ (la, dirty || write) ];
      `Hit
    | None ->
      let l = if List.length l >= t.ways then List.tl l else l in
      t.state.(s) <- l @ [ (la, write) ];
      `Miss

  let probe t la = List.mem_assoc la t.state.(set_of t la)

  let dirty t la =
    match List.assoc_opt la t.state.(set_of t la) with
    | Some d -> d
    | None -> false

  let invalidate t la =
    let s = set_of t la in
    t.state.(s) <- List.filter (fun (a, _) -> a <> la) t.state.(s)

  let clean t la =
    let s = set_of t la in
    t.state.(s) <-
      List.map (fun (a, d) -> if a = la then (a, false) else (a, d)) t.state.(s)

  let count t p =
    Array.fold_left
      (fun n l -> List.fold_left (fun n e -> if p e then n + 1 else n) n l)
      0 t.state

  (* Both return what the cache's full operation must: the lines
     dropped or written back. *)
  let invalidate_all t =
    let n = count t (fun _ -> true) in
    Array.fill t.state 0 t.sets [];
    n

  let clean_all t =
    let n = count t snd in
    t.state <- Array.map (List.map (fun (a, _) -> (a, false))) t.state;
    n
end

let prop_cache_lru_model =
  QCheck2.Test.make ~name:"Cache matches per-set LRU model" ~count:300
    gen_cache_case
    (fun (lines, ops) ->
       (* 8 sets x 2 ways x 32 B lines = 512 B cache. *)
       let c =
         Cache.create
           { Cache.name = "model"; size_bytes = 512; ways = 2; line_size = 32 }
       in
       let m = Cache_model.create ~sets:8 ~ways:2 in
       let pool =
         Array.of_list (lines @ List.map (fun la -> la lxor (1 lsl 27)) lines)
       in
       List.for_all
         (fun op ->
            match op with
            | C_access (i, w) ->
              let la = pool.(i) in
              Cache.access c (la * 32) ~write:w = Cache_model.access m la w
            | C_inval i ->
              let la = pool.(i) in
              ignore (Cache.invalidate_range c (la * 32) 32);
              Cache_model.invalidate m la;
              Cache.probe c (la * 32) = Cache_model.probe m la
            | C_clean i ->
              let la = pool.(i) in
              ignore (Cache.clean_range c (la * 32) 32);
              Cache_model.clean m la;
              Cache.dirty_in_range c (la * 32) 32 = Cache_model.dirty m la
            | C_inval_all ->
              Cache.invalidate_all c = Cache_model.invalidate_all m
            | C_clean_all -> Cache.clean_all c = Cache_model.clean_all m)
         ops)

(* ------------------------------------------------------------------ *)
(* Scheduler vs a list-of-rings model.                                 *)

type sched_op = S_enq of int | S_deq of int | S_rotate

let gen_sched_ops =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (oneof
         [ map (fun i -> S_enq (abs i mod 12)) int;
           map (fun i -> S_deq (abs i mod 12)) int;
           return S_rotate ]))

(* Besides pick-agreement after every op, the ring must pass its own
   structural integrity walk (closure, link symmetry, counts). *)
let sched_model_holds ops =
  let s = Sched.create () in
       let mem = Phys_mem.create () in
       let fa =
         Frame_alloc.create ~base:Address_map.kernel_data_base
           ~size:(2 lsl 20)
       in
       let pds =
         Array.init 12 (fun id ->
             let pt = Page_table.create mem fa in
             Pd.make ~id ~name:(string_of_int id) ~kind:Pd.Guest
               ~priority:(id mod 3) ~asid:(2 + id) ~pt ~phys_base:0
               ~quantum:100 ())
       in
       (* model: per priority, pd ids head-first *)
  let model = Array.make 3 [] in
  let model_pick () =
    let rec scan p = if p < 0 then None else
        match model.(p) with [] -> scan (p - 1) | h :: _ -> Some h
    in
    scan 2
  in
  List.for_all
    (fun op ->
       (match op with
        | S_enq i ->
          let pd = pds.(i) in
          Sched.enqueue s pd;
          let p = pd.Pd.priority in
          if not (List.mem i model.(p)) then model.(p) <- model.(p) @ [ i ]
        | S_deq i ->
          let pd = pds.(i) in
          Sched.dequeue s pd;
          let p = pd.Pd.priority in
          model.(p) <- List.filter (( <> ) i) model.(p)
        | S_rotate ->
          (match Sched.pick s with
           | Some pd ->
             Sched.rotate s pd;
             let p = pd.Pd.priority in
             (match model.(p) with
              | h :: t -> model.(p) <- t @ [ h ]
              | [] -> ())
           | None -> ()));
       let real = Option.map (fun p -> p.Pd.id) (Sched.pick s) in
       real = model_pick () && Sched.integrity s = [])
    ops

let prop_sched_model =
  QCheck2.Test.make ~name:"Sched matches list-of-rings model" ~count:300
    gen_sched_ops sched_model_holds

(* ------------------------------------------------------------------ *)
(* vGIC vs a set/queue model.                                          *)

type vgic_op =
  | V_register of int
  | V_enable of int
  | V_disable of int
  | V_pend of int
  | V_drain

let gen_vgic_ops =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (oneof
         [ map (fun i -> V_register (abs i mod 6)) int;
           map (fun i -> V_enable (abs i mod 6)) int;
           map (fun i -> V_disable (abs i mod 6)) int;
           map (fun i -> V_pend (abs i mod 6)) int;
           return V_drain ]))

let prop_vgic_model =
  QCheck2.Test.make ~name:"Vgic matches set/queue model" ~count:300
    gen_vgic_ops
    (fun ops ->
       let v = Vgic.create ~owner:0 in
       let registered = Hashtbl.create 8 in
       let enabled = Hashtbl.create 8 in
       let pending = ref [] (* arrival order *) in
       List.for_all
         (fun op ->
            match op with
            | V_register i ->
              Vgic.register v i;
              Hashtbl.replace registered i ();
              true
            | V_enable i ->
              if Hashtbl.mem registered i then begin
                Vgic.enable v i;
                Hashtbl.replace enabled i ();
                true
              end
              else true (* enable on unregistered raises; skip in model *)
            | V_disable i ->
              if Hashtbl.mem registered i then begin
                Vgic.disable v i;
                Hashtbl.remove enabled i;
                true
              end
              else true
            | V_pend i ->
              Vgic.set_pending v i;
              Hashtbl.replace registered i (); (* set_pending latches *)
              if not (List.mem i !pending) then pending := !pending @ [ i ];
              true
            | V_drain ->
              let expect =
                List.filter (fun i -> Hashtbl.mem enabled i) !pending
              in
              pending := List.filter (fun i -> not (Hashtbl.mem enabled i)) !pending;
              Vgic.drain v = expect)
         ops)

(* ------------------------------------------------------------------ *)
(* Page table vs a hashtable of mappings.                              *)

type pt_op = P_map of int * int | P_unmap of int

let gen_pt_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (oneof
         [ map2 (fun v p -> P_map (abs v mod 24, abs p mod 64)) int int;
           map (fun v -> P_unmap (abs v mod 24)) int ]))

let prop_page_table_model =
  QCheck2.Test.make ~name:"Page_table matches mapping model" ~count:200
    gen_pt_ops
    (fun ops ->
       let mem = Phys_mem.create () in
       let fa =
         Frame_alloc.create ~base:Address_map.kernel_data_base
           ~size:(2 lsl 20)
       in
       let pt = Page_table.create mem fa in
       let model = Hashtbl.create 16 in
       let vbase = 0x0800_0000 and pbase = 0x0400_0000 in
       let ok = ref true in
       List.iter
         (fun op ->
            match op with
            | P_map (vi, pi) ->
              let virt = vbase + (vi * Addr.page_size) in
              let phys = pbase + (pi * Addr.page_size) in
              Page_table.map_page pt ~virt ~phys ~domain:2 ~ap:Pte.Ap_full
                ~global:false;
              Hashtbl.replace model vi pi
            | P_unmap vi ->
              let virt = vbase + (vi * Addr.page_size) in
              let existed = Page_table.unmap_page pt ~virt in
              if existed <> Hashtbl.mem model vi then ok := false;
              Hashtbl.remove model vi)
         ops;
       (* Final walk of every page agrees with the model. *)
       !ok
       && List.for_all
            (fun vi ->
               let virt = vbase + (vi * Addr.page_size) in
               let walked =
                 Page_table.walk ~read:(Phys_mem.read_u32 mem)
                   ~root:(Page_table.root pt) ~virt
               in
               match Hashtbl.find_opt model vi, walked with
               | None, None -> true
               | Some pi, Some (pa, _) -> pa = pbase + (pi * Addr.page_size)
               | _ -> false)
            (List.init 24 Fun.id))

(* ------------------------------------------------------------------ *)
(* Seeded runners: the same models driven by the repo's own splitmix
   generator over a fixed seed range, so a failure message carries the
   exact seed to replay (`seed N` below reproduces bit-for-bit).       *)

let eq_ops_of_seed seed =
  let rng = Rng.create ~seed in
  List.init
    (20 + Rng.int rng 60)
    (fun _ ->
       match Rng.int rng 3 with
       | 0 -> Eq_schedule (Rng.int rng 256)
       | 1 -> Eq_cancel (Rng.int rng 1024)
       | _ -> Eq_advance (1 + Rng.int rng 64))

let test_event_queue_seeded () =
  for seed = 1 to 50 do
    if not (eq_model_holds (eq_ops_of_seed seed)) then
      Alcotest.failf
        "event-queue model mismatch; replay with seed %d" seed
  done

let sched_ops_of_seed seed =
  let rng = Rng.create ~seed in
  List.init
    (20 + Rng.int rng 80)
    (fun _ ->
       match Rng.int rng 3 with
       | 0 -> S_enq (Rng.int rng 12)
       | 1 -> S_deq (Rng.int rng 12)
       | _ -> S_rotate)

let test_sched_seeded () =
  for seed = 1 to 50 do
    if not (sched_model_holds (sched_ops_of_seed seed)) then
      Alcotest.failf "sched model mismatch; replay with seed %d" seed
  done

let test_placeholder () = Alcotest.check cb "models loaded" true true

let suite =
  ( "models",
    [ QCheck_alcotest.to_alcotest prop_event_queue_model;
      QCheck_alcotest.to_alcotest prop_cache_lru_model;
      QCheck_alcotest.to_alcotest prop_sched_model;
      QCheck_alcotest.to_alcotest prop_vgic_model;
      QCheck_alcotest.to_alcotest prop_page_table_model;
      Alcotest.test_case "event-queue model, seeded runner" `Quick
        test_event_queue_seeded;
      Alcotest.test_case "sched model, seeded runner" `Quick
        test_sched_seeded;
      Alcotest.test_case "placeholder" `Quick test_placeholder ] )
