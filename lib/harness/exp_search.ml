let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 192 in
  let rebatch = Renaming.Rebatching.make ~t0:3 ~n () in
  let budget =
    Renaming.Rebatching.probe_budget rebatch 0
    + Renaming.Rebatching.kappa rebatch - 1
    + Renaming.Rebatching.probe_budget rebatch (Renaming.Rebatching.kappa rebatch)
  in
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("seed", Table.Right);
          ("random max", Table.Right);
          ("searched max", Table.Right);
          ("evaluations", Table.Right);
          ("phase budget", Table.Right);
        ]
  in
  let attack label algo budget_cell =
    for trial = 0 to min 2 (ctx.trials - 1) do
      let seed = ctx.seed + trial in
      let r =
        Sim.Search.hill_climb ~seed ~n ~algo ~rounds:25 ~mutants_per_round:6
          Sim.Search.Max_steps
      in
      Table.add_row table
        [
          label;
          Table.cell_int seed;
          Table.cell_int r.Sim.Search.initial_score;
          Table.cell_int r.Sim.Search.best_score;
          Table.cell_int r.Sim.Search.evaluations;
          budget_cell;
        ]
    done
  in
  attack "rebatching(t0=3)"
    (fun env -> Renaming.Rebatching.get_name env rebatch)
    (Table.cell_int budget);
  attack "uniform"
    (fun env -> Baselines.Uniform_probe.get_name env ~m:(2 * n) ~max_steps:(1000 * n))
    "-";
  ctx.emit_table
    ~title:
      (Printf.sprintf
         "T14: hill-climbed worst schedules (coins frozen), n=%d" n)
    table;
  ctx.log
    "T14 note: searched schedules are oblivious decision lists; staying \
     within the phase budget means scheduling alone cannot break Theorem \
     4.1's band for these coins."

let exp =
  {
    Experiment.id = "t14";
    title = "Adversarial schedule search (extension)";
    claim =
      "Extension of §2: even schedules optimized against the execution \
       cannot push ReBatching past its phase budget";
    body = Experiment.Serial run;
  }
