type better = Lower | Higher

type verdict = Improved | Regressed | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  k : int;
}

let summarize xs =
  let q1, median, q3 = Quantiles.quartiles xs in
  { median; q1; q3; k = List.length xs }

type comparison = {
  parent : summary;
  change : summary;
  pairs : int;
  wins : int;
  verdict : verdict;
}

let compare_runs ~better ~bound ~parent ~change ~pairs =
  (* [gain a b] > 0 when [b] is better than [a]. *)
  let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
  let p = summarize parent and c = summarize change in
  let wins = List.length (List.filter (fun (a, b) -> gain a b > 0.0) pairs) in
  let npairs = List.length pairs in
  let delta = gain p.median c.median in
  let parent_iqr = p.q3 -. p.q1 in
  let spread =
    Float.max (Quantiles.iqr_share parent) (Quantiles.iqr_share change)
  in
  let every_better =
    List.for_all (fun a -> List.for_all (fun b -> gain a b > 0.0) change) parent
  in
  let every_worse =
    List.for_all (fun a -> List.for_all (fun b -> gain a b < 0.0) change) parent
  in
  let verdict =
    if npairs >= 10 && wins * 10 >= npairs * 9 && delta > parent_iqr then
      Improved
    else if
      -.delta > bound *. Float.abs p.median && (spread <= bound || every_worse)
    then Regressed
    else if spread > bound && not every_better then Unresolved
    else Unchanged
  in
  { parent = p; change = c; pairs = npairs; wins; verdict }
