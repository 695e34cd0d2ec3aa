let metric_names =
  [ "HW Manager entry"; "HW Manager exit"; "PL IRQ entry";
    "HW Manager execution"; "Total overhead" ]

let values_of (o : Scenario.overheads) =
  [ o.Scenario.entry_us; o.Scenario.exit_us; o.Scenario.plirq_us;
    o.Scenario.exec_us; o.Scenario.total_us ]

let table3_rows sweep =
  let cols = List.map values_of sweep in
  List.mapi
    (fun i metric -> (metric, List.map (fun col -> List.nth col i) cols))
    metric_names

(* Degradation ratios, paper Eq (1): metrics that are zero natively
   use the 1-VM figure as the reference. *)
let ratio_rows rows =
  List.map
    (fun (metric, values) ->
       match values with
       | native :: (one :: _ as virt) ->
         let reference = if native > 0.0 then native else one in
         ( metric,
           List.map
             (fun v -> if reference > 0.0 then v /. reference else 0.0)
             virt )
       | _ -> (metric, []))
    rows

let fig9_rows sweep = ratio_rows (table3_rows sweep)

let paper_rows =
  List.map
    (fun r ->
       (r.Paper_data.metric, r.Paper_data.native :: Array.to_list r.guests))
    Paper_data.table3

let paper_fig9 = ratio_rows paper_rows
