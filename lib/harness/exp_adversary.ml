let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 512 in
  let instance = Renaming.Rebatching.make ~t0:3 ~n () in
  let algo env = Renaming.Rebatching.get_name env instance in
  let table =
    Table.create
      ~columns:
        [
          ("adversary", Table.Left);
          ("max steps", Table.Right);
          ("avg steps", Table.Right);
          ("total", Table.Right);
          ("unique", Table.Left);
        ]
  in
  let strategies =
    Sim.Adversary.all_builtin
    @ [ Sim.Adversary.with_crashes ~fraction:0.25 Sim.Adversary.greedy_collision ]
  in
  List.iter
    (fun adversary ->
      let maxs = Stats.Summary.acc_create () in
      let avgs = Stats.Summary.acc_create () in
      let totals = Stats.Summary.acc_create () in
      let all_unique = ref true in
      for trial = 0 to ctx.trials - 1 do
        let r = Sim.Runner.run ~adversary ~seed:(ctx.seed + trial) ~n ~algo () in
        if not (Sim.Runner.check_unique_names r) then all_unique := false;
        Stats.Summary.acc_add maxs (float_of_int r.Sim.Runner.max_steps);
        let survivors =
          Array.length r.Sim.Runner.names - r.Sim.Runner.crash_count
        in
        Stats.Summary.acc_add avgs
          (float_of_int r.Sim.Runner.total_steps /. float_of_int (max 1 survivors));
        Stats.Summary.acc_add totals (float_of_int r.Sim.Runner.total_steps)
      done;
      Table.add_row table
        [
          adversary.Sim.Adversary.name;
          Table.cell_float (Stats.Summary.acc_mean maxs);
          Table.cell_float (Stats.Summary.acc_mean avgs);
          Table.cell_float ~decimals:0 (Stats.Summary.acc_mean totals);
          (if !all_unique then "yes" else "NO");
        ])
    strategies;
  ctx.emit_table
    ~title:
      (Printf.sprintf "T7: ReBatching (t0=3) under each adversary, n=%d" n)
    table

let exp =
  {
    Experiment.id = "t7";
    title = "Adversary ablation";
    claim =
      "§1/§2: the w.h.p. bounds hold against a strong adaptive adversary — no \
       schedule escapes the log log n band";
    body = Experiment.Serial run;
  }
