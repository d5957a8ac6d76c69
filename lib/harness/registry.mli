(** The experiment registry: every table/figure of DESIGN.md §4. *)

val all : Experiment.t list
(** In presentation order: t1 .. t18, f1, f2, b2 — what [repro_cli all],
    [list] and [report] run.  Excludes the large-n sweeps ({!large}). *)

val large : Experiment.t list
(** The large-n decade sweeps (t1l, t5l): minutes each at full scale, so
    runnable by id but never part of {!all}. *)

val find : string -> Experiment.t option
(** Look up by id (case-insensitive), across {!all} and {!large}. *)
