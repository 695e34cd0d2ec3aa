(** Rendering of the paper's evaluation artifacts.

    Table III rows come straight from a sweep of Table III cells
    (native, then 1..n VMs);
    Figure 9's degradation ratios R_D = t_virt / t_native follow the
    paper's convention — metrics that are zero natively (entry, exit,
    PL IRQ entry) are normalised to their 1-VM value instead. *)

val table3_rows : Scenario.overheads list -> (string * float list) list
(** [(metric, [native; 1 VM; …])] in µs. Input must be the sweep's
    cells in order (native first). *)

val fig9_rows : Scenario.overheads list -> (string * float list) list
(** [(metric, ratios for 1..n VMs)]. *)

val paper_fig9 : (string * float list) list
(** The ratios implied by the paper's Table III numbers. *)
