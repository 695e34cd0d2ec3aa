(* Compare benchmark results of two commits.

     dune exec benchmark/compare.exe -- PARENT CHANGE

   PARENT and CHANGE are result files or directories of them (as
   written under benchmark/results/). Every run carrying end-to-end
   metrics counts; runs of one workload on the same seed form a pair.
   Prints one row per workload and end-to-end metric with both sides'
   median and quartiles, the change's pair-win share and the verdict
   of Verdict.compare_runs, then each side's failure share. *)

open Benchkit

let files path =
  if Sys.is_directory path then
    List.filter_map
      (fun f ->
         if Filename.check_suffix f ".json" then Some (Filename.concat path f) else None)
      (List.sort compare (Array.to_list (Sys.readdir path)))
  else [ path ]

(* Every run with end-to-end metrics: (workload, seed, run object). *)
let runs path =
  List.concat_map
    (fun f ->
       match Json.of_string (In_channel.with_open_text f In_channel.input_all) with
       | Error e ->
         Printf.eprintf "skipping %s: %s\n" f e;
         []
       | Ok j ->
         List.filter_map
           (fun r ->
              match Json.member "end_to_end" r with
              | Json.Obj (_ :: _) ->
                Some
                  ( Json.to_str (Json.member "workload" r),
                    int_of_float (Json.to_float (Json.member "seed" r)),
                    r )
              | _ -> None)
           (Json.to_list (Json.member "runs" j)))
    (files path)

let median_of r name =
  Json.to_float (Json.member "median" (Json.member name (Json.member "end_to_end" r)))

(* Pair runs on equal seeds, in file order. *)
let pairs parent change =
  let rec go acc = function
    | [] -> List.rev acc
    | (seed, p) :: rest ->
      (match List.assoc_opt seed !change with
       | Some c ->
         change := List.remove_assoc seed !change;
         go ((p, c) :: acc) rest
       | None -> go acc rest)
  in
  go [] parent

let () =
  match Sys.argv with
  | [| _; parent_path; change_path |] ->
    let parent = runs parent_path and change = runs change_path in
    let workloads =
      List.sort_uniq compare (List.map (fun (w, _, _) -> w) (parent @ change))
    in
    Printf.printf "%-16s %-19s %-44s %-44s %-7s %s\n" "workload" "metric"
      "parent median [q1, q3] k" "change median [q1, q3] k" "wins" "verdict";
    List.iter
      (fun w ->
         let side l = List.filter_map (fun (w', s, r) -> if w' = w then Some (s, r) else None) l in
         let p = side parent and c = side change in
         List.iter
           (fun (m : Catalog.metric) ->
              let values l = List.map (fun (_, r) -> median_of r m.name) l in
              let pv = values p and cv = values c in
              if pv <> [] && cv <> [] then begin
                let matched =
                  List.map
                    (fun (a, b) -> (median_of a m.name, median_of b m.name))
                    (pairs p (ref c))
                in
                let r =
                  Verdict.compare_runs ~better:m.better
                    ~bound:(Option.value m.bound ~default:0.0) ~parent:pv ~change:cv
                    ~pairs:matched
                in
                let show (s : Verdict.summary) =
                  Printf.sprintf "%.6g [%.6g, %.6g] k%d" s.median s.q1 s.q3 s.k
                in
                Printf.printf "%-16s %-19s %-44s %-44s %3d/%-3d %s\n" w m.name
                  (show r.parent) (show r.change) r.wins r.pairs
                  (Verdict.verdict_name r.verdict)
              end)
           Catalog.end_to_end;
         let share l =
           let sum k = List.fold_left (fun a (_, r) -> a +. Json.to_float (Json.member k r)) 0.0 l in
           let att = sum "attempted" in
           (sum "failed", att, if att > 0.0 then sum "failed" /. att else 0.0)
         in
         let pf, pa, ps = share p and cf, ca, cs = share c in
         Printf.printf "%-16s failed share: parent %.0f/%.0f (%.4f%%), change %.0f/%.0f (%.4f%%)%s\n"
           w pf pa (100.0 *. ps) cf ca (100.0 *. cs)
           (if cs > ps then "  MORE FAILURES" else ""))
      workloads
  | _ ->
    prerr_endline "usage: compare.exe PARENT CHANGE  (result files or directories)";
    exit 2
