(* The experiment kit: boot and the per-node read-outs. Every multi-VM
   experiment drives the kernel through an Smp complex built here; at
   one pCPU the complex is pure delegation to the single kernel, so
   there is no separate single-kernel path. *)

let boot ?config ?observe ?(fault_seed = 0) ?fault_rate ~pcpus () =
  Smp.create ?config ~pcpus
    ~mk_zynq:(fun cpu ->
        Zynq.create ?observe ~fault_seed:(fault_seed + cpu) ?fault_rate ~cpu ())
    ()

(* {2 Read-outs} *)

type prr_util = {
  prr_id : int;
  pinned : int option;
  busy_cycles : int;
  util : float;
}

let prr_utilisation smp ~sim_cycles =
  List.concat
    (List.init (Smp.pcpus smp) (fun cpu ->
         let hwtm = Kernel.hwtm (Smp.kernel smp cpu) in
         let prrc = (Smp.zynq smp cpu).Zynq.prrc in
         List.init (Prr_controller.prr_count prrc) (fun i ->
             let p = Prr_controller.prr prrc i in
             { prr_id = (cpu * Prr_controller.prr_count prrc) + i;
               pinned = Hw_task_manager.pinned_client hwtm i;
               busy_cycles = p.Prr.busy_cycles;
               util =
                 (if sim_cycles = 0 then 0.0
                  else
                    float_of_int p.Prr.busy_cycles /. float_of_int sim_cycles) })))

let prr_util_json ~pinned l =
  let open Json_out in
  let row p =
    let owner = Option.fold ~none:Null ~some:(fun c -> Int c) p.pinned in
    Obj
      ((("prr", Int p.prr_id) :: (if pinned then [ ("pinned", owner) ] else []))
       @ [ ("busy_cycles", Int p.busy_cycles); ("util", Float p.util) ])
  in
  List (List.map row l)

let sum_nodes smp f =
  let acc = ref 0 in
  for cpu = 0 to Smp.pcpus smp - 1 do
    acc := !acc + f cpu
  done;
  !acc

let sum_kernels smp f = sum_nodes smp (fun cpu -> f (Smp.kernel smp cpu))
let sum_boards smp f = sum_nodes smp (fun cpu -> f (Smp.zynq smp cpu))
