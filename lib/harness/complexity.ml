type report = {
  kernel_loc : int option;
  guest_loc : int option;
  patch_loc : int option;
  hypercalls : int;
  time_slice_ms : float;
  substrate_loc : int option;
  glue_loc : int option;
}

let count_lines file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let loc_of_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else begin
    let files = Sys.readdir dir in
    let total =
      Array.fold_left
        (fun acc f ->
           if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then acc + count_lines (Filename.concat dir f)
           else acc)
        0 files
    in
    Some total
  end

let sum_opt xs =
  List.fold_left
    (fun acc x ->
       match acc, x with
       | Some a, Some b -> Some (a + b)
       | _ -> None)
    (Some 0) xs

let kernel_dirs = [ "lib/core" ]
let guest_dirs = [ "lib/ucos" ]

let substrate_dirs =
  [ "lib/engine"; "lib/mem"; "lib/cachesim"; "lib/mmu"; "lib/devices";
    "lib/pl"; "lib/platform"; "lib/obs"; "lib/workloads" ]

let glue_dirs = [ "lib/harness"; "lib/check"; "bin" ]

let measure ?(root = ".") () =
  let dir d = Filename.concat root d in
  let patch =
    let f = dir "lib/ucos/port.ml" in
    let fi = dir "lib/ucos/port.mli" in
    if Sys.file_exists f && Sys.file_exists fi then
      Some (count_lines f + count_lines fi)
    else None
  in
  let loc dirs = sum_opt (List.map (fun d -> loc_of_dir (dir d)) dirs) in
  { kernel_loc = loc kernel_dirs;
    guest_loc = loc guest_dirs;
    patch_loc = patch;
    (* The paper-comparable figure is the v1 (paper §V-B) ABI; the v2
       ring extension is ours, not the paper's. *)
    hypercalls = Hyper.hypercall_count_v1;
    time_slice_ms = Cycles.to_ms Kernel.default_config.Kernel.quantum;
    substrate_loc = loc substrate_dirs;
    glue_loc = loc glue_dirs }
