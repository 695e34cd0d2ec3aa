(* Circular doubly-linked rings, one per priority level, as in the
   paper's Fig 3. Nodes are tracked per PD id for O(1) removal. *)

type node = {
  pd : Pd.t;
  mutable next : node;
  mutable prev : node;
}

type t = {
  heads : node option array;
  nodes : node Int_table.t;
  mutable count : int;
}

let levels = 8

let create () =
  { heads = Array.make levels None; nodes = Int_table.create 16; count = 0 }

let check_prio p =
  if p < 0 || p >= levels then invalid_arg "Sched: priority out of range"

let enqueue t pd =
  check_prio pd.Pd.priority;
  if not (Int_table.mem t.nodes pd.Pd.id) then begin
    let rec node = { pd; next = node; prev = node } in
    (match t.heads.(pd.Pd.priority) with
     | None -> t.heads.(pd.Pd.priority) <- Some node
     | Some head ->
       (* Insert at tail (= head.prev). *)
       let tail = head.prev in
       tail.next <- node;
       node.prev <- tail;
       node.next <- head;
       head.prev <- node);
    Int_table.replace t.nodes pd.Pd.id node;
    t.count <- t.count + 1
  end

let dequeue t pd =
  match Int_table.find_opt t.nodes pd.Pd.id with
  | None -> ()
  | Some node ->
    Int_table.remove t.nodes pd.Pd.id;
    t.count <- t.count - 1;
    if node.next == node then t.heads.(pd.Pd.priority) <- None
    else begin
      node.prev.next <- node.next;
      node.next.prev <- node.prev;
      match t.heads.(pd.Pd.priority) with
      | Some head when head == node ->
        t.heads.(pd.Pd.priority) <- Some node.next
      | Some _ | None -> ()
    end

let contains t pd = Int_table.mem t.nodes pd.Pd.id

let pick t =
  let rec scan level =
    if level < 0 then None
    else
      match t.heads.(level) with
      | Some node -> Some node.pd
      | None -> scan (level - 1)
  in
  scan (levels - 1)

let rotate t pd =
  match t.heads.(pd.Pd.priority) with
  | Some head when head.pd == pd -> t.heads.(pd.Pd.priority) <- Some head.next
  | Some _ | None -> ()

let count t = t.count

let integrity t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let visited = ref 0 in
  for level = 0 to levels - 1 do
    match t.heads.(level) with
    | None -> ()
    | Some head ->
      (* Bound the walk by count + 1 so a corrupted ring (lost back
         link, cross-linked levels) cannot loop forever. *)
      let rec walk node steps =
        if steps > t.count then
          note "level %d: ring does not close within count=%d nodes" level
            t.count
        else begin
          incr visited;
          if node.pd.Pd.priority <> level then
            note "level %d: pd %d has priority %d" level node.pd.Pd.id
              node.pd.Pd.priority;
          if node.next.prev != node then
            note "level %d: broken back link at pd %d" level node.pd.Pd.id;
          (match Int_table.find_opt t.nodes node.pd.Pd.id with
           | Some n when n == node -> ()
           | Some _ ->
             note "level %d: pd %d ring node differs from table node" level
               node.pd.Pd.id
           | None ->
             note "level %d: pd %d enqueued but missing from node table"
               level node.pd.Pd.id);
          if node.next != head then walk node.next (steps + 1)
        end
      in
      walk head 1
  done;
  if !visited <> t.count then
    note "ring population %d <> count %d" !visited t.count;
  if Int_table.length t.nodes <> t.count then
    note "node table size %d <> count %d" (Int_table.length t.nodes) t.count;
  List.rev !problems

let level_members t level =
  check_prio level;
  match t.heads.(level) with
  | None -> []
  | Some head ->
    let rec walk acc node =
      if node == head then List.rev acc else walk (node.pd :: acc) node.next
    in
    head.pd :: walk [] head.next

(* All queued PDs in deterministic dispatch order: priority high to
   low, ring order within a level (head = next to run). This is the
   victim enumeration work-stealing scans — the stealer takes from
   the back, i.e. the PD furthest from running here. *)
let members t =
  List.concat (List.init levels (fun i -> level_members t (levels - 1 - i)))
