let all =
  [
    Exp_step_complexity.exp;
    Exp_total_steps.exp;
    Exp_batch_survivors.exp;
    Exp_backup_rate.exp;
    Exp_adaptive.exp;
    Exp_fast_adaptive.exp;
    Exp_adversary.exp;
    Exp_crashes.exp;
    Exp_epsilon.exp;
    Exp_constants.exp;
    Exp_churn.exp;
    Exp_tail.exp;
    Exp_arrivals.exp;
    Exp_search.exp;
    Exp_access_counts.exp;
    Exp_substrates.exp;
    Exp_sifters.exp;
    Exp_namespace.exp;
    Exp_coupling.exp;
    Exp_lowerbound.exp;
    Exp_chaos.exp;
  ]

(* Large-n decade sweeps: minutes each at full scale, so they are
   reachable by id (run/bench --large) but never part of [all] — the
   default serial run of every experiment must stay fast. *)
let large = [ Exp_large.t1l; Exp_large.t5l ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.Experiment.id = id) (all @ large)
