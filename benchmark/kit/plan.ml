type outcome = {
  kind : Workload.kind;
  seed : int;
  size : int;
  workers : int;
  end_to_end : (string * float list) list;
  per_layer : (string * float) list;
  attempted : int;
  failed : int;
}

let setup_boots = 21
let boots_per_sample = 5

exception Invalid of string list

let measure ~spawn kind ~size ~seed ~workers ~end_to_end ~per_layer ~seconds
    ~min_untraced =
  let fingerprint = ref None in
  let run (spec : Instance.spec) =
    let i = spawn spec in
    let what =
      Printf.sprintf "%s instance (workers %d%s)" (Workload.name kind) spec.workers
        (if spec.traced then ", traced" else "")
    in
    if i.Instance.errors <> [] then
      raise (Invalid (List.map (fun e -> what ^ ": " ^ e) i.Instance.errors));
    (match !fingerprint with
     | None -> fingerprint := Some i.Instance.fingerprint
     | Some f when f <> i.Instance.fingerprint ->
       raise (Invalid [ what ^ ": simulated fingerprint differs from the first instance" ])
     | Some _ -> ());
    i
  in
  let now () = float_of_int (Layer_clock.host_now_ns ()) /. 1e9 in
  (* The set-up samples are spread over the first [min_untraced]
     instances, so a burst of host noise cannot bias all of them at
     once; each averages a few back-to-back boots, so one GC slice does
     not decide a sample. *)
  let min_untraced = max 1 min_untraced in
  let boots_each = (setup_boots + min_untraced - 1) / min_untraced in
  let setups = ref [] in
  let boot_some () =
    for _ = 1 to min boots_each (setup_boots - List.length !setups) do
      setups := Instance.setup_seconds kind ~size ~seed ~workers ~boots:boots_per_sample
                :: !setups
    done
  in
  match
    let t0 = now () in
    let rec untraced_loop acc n =
      if n >= min_untraced && now () -. t0 >= seconds then List.rev acc
      else begin
        boot_some ();
        untraced_loop (run { workers; traced = false } :: acc) (n + 1)
      end
    in
    let untraced =
      if end_to_end then untraced_loop [] 0
      else if per_layer then [ run { workers; traced = false } ]
      else []
    in
    let layers =
      if not per_layer then []
      else begin
        let u = List.hd untraced in
        let u1 = run { workers = 1; traced = false } in
        let tr = run { workers = 1; traced = true } in
        let wall i = Instance.metric i "wall_s" in
        let get name =
          match name with
          | "smp.speedup" -> wall u1 /. wall u
          | "trace.overhead_ratio" -> wall tr /. wall u1
          | _ ->
            (match List.assoc_opt name u.Instance.metrics with
             | Some v -> v
             | None -> Instance.metric tr name)
        in
        List.map (fun (m : Catalog.metric) -> (m.name, get m.name)) Catalog.per_layer
      end
    in
    let first = List.hd untraced in
    { kind; seed; size; workers;
      end_to_end =
        (if not end_to_end then []
         else
           List.map
             (fun (m : Catalog.metric) ->
                ( m.name,
                  if m.name = "setup_s" then !setups
                  else List.map (fun i -> Instance.metric i m.name) untraced ))
             Catalog.end_to_end);
      per_layer = layers;
      attempted = first.Instance.attempted;
      failed = first.Instance.failed }
  with
  | o -> Ok o
  | exception Invalid errors -> Error errors

let value o name =
  match List.assoc_opt name o.end_to_end with
  | Some vs -> Quantiles.median vs
  | None -> List.assoc name o.per_layer

let unit_of name =
  match Catalog.find name with Some m -> m.Catalog.unit_ | None -> ""

let print ppf o =
  Format.fprintf ppf "@[<v>%s  seed %d  %s %d  workers %d  jobs %d attempted, %d failed@,"
    (Workload.name o.kind) o.seed (Workload.size_name o.kind) o.size o.workers
    o.attempted o.failed;
  List.iter
    (fun (name, vs) ->
       let q1, med, q3 = Quantiles.quartiles vs in
       Format.fprintf ppf "  %-24s %14.6g %-9s q1 %.6g  q3 %.6g  k %d@," name med
         (unit_of name) q1 q3 (List.length vs))
    o.end_to_end;
  if o.per_layer <> [] then begin
    let host =
      List.map (fun l -> (Layer_clock.name l, List.assoc (Layer_clock.name l) o.per_layer))
        Layer_clock.all
    in
    let traced_wall = List.fold_left (fun a (_, v) -> a +. v) 0.0 host in
    Format.fprintf ppf "  layer table (exclusive host time of the traced run, %.3f s):@,"
      traced_wall;
    List.iter
      (fun (name, v) ->
         Format.fprintf ppf "    %-24s %10.4f s %6.1f%%@," name v
           (if traced_wall > 0.0 then 100.0 *. v /. traced_wall else 0.0))
      host;
    List.iter
      (fun (name, v) ->
         if not (List.mem_assoc name host) then
           Format.fprintf ppf "  %-30s %14.6g %s@," name v (unit_of name))
      o.per_layer
  end;
  Format.fprintf ppf "@]"

let to_json o =
  let num v = Json.Num v in
  Json.Obj
    [ ("workload", Json.Str (Workload.name o.kind));
      ("seed", num (float_of_int o.seed));
      ("sizes", Json.Obj [ (Workload.size_name o.kind, num (float_of_int o.size)) ]);
      ("workers", num (float_of_int o.workers));
      ("attempted", num (float_of_int o.attempted));
      ("failed", num (float_of_int o.failed));
      ( "end_to_end",
        Json.Obj
          (List.map
             (fun (name, vs) ->
                let q1, med, q3 = Quantiles.quartiles vs in
                ( name,
                  Json.Obj
                    [ ("unit", Json.Str (unit_of name)); ("median", num med);
                      ("q1", num q1); ("q3", num q3);
                      ("k", num (float_of_int (List.length vs)));
                      ("values", Json.Arr (List.map num vs)) ] ))
             o.end_to_end) );
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (name, v) ->
                (name, Json.Obj [ ("unit", Json.Str (unit_of name)); ("value", num v) ]))
             o.per_layer) ) ]
