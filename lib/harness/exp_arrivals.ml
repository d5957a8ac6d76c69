let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 1024 in
  let patterns =
    [
      ("all-at-once", Sim.Adversary.random);
      ("staggered x4", Sim.Arrivals.staggered ~interval:4 Sim.Adversary.random);
      ( "bursts 32/256",
        Sim.Arrivals.bursts ~size:32 ~gap:256 Sim.Adversary.random );
      ( "staggered+greedy",
        Sim.Arrivals.staggered ~interval:4 Sim.Adversary.greedy_collision );
    ]
  in
  let algorithms =
    [
      ( "rebatching(t0=3)",
        fun () ->
          let instance = Renaming.Rebatching.make ~t0:3 ~n () in
          fun env -> Renaming.Rebatching.get_name env instance );
      ( "adaptive",
        fun () ->
          let space = Renaming.Object_space.create ~t0:3 () in
          fun env -> Renaming.Adaptive_rebatching.get_name env space );
      ( "fast-adaptive",
        fun () ->
          let space = Renaming.Object_space.create ~t0:3 () in
          fun env -> Renaming.Fast_adaptive_rebatching.get_name env space );
    ]
  in
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("arrival pattern", Table.Left);
          ("max steps", Table.Right);
          ("avg steps", Table.Right);
          ("max name", Table.Right);
          ("point contention", Table.Right);
          ("unique", Table.Left);
        ]
  in
  List.iter
    (fun (alg_name, make_algo) ->
      List.iter
        (fun (pattern_name, adversary) ->
          let maxs = Stats.Summary.acc_create () in
          let avgs = Stats.Summary.acc_create () in
          let names = Stats.Summary.acc_create () in
          let contention = Stats.Summary.acc_create () in
          let all_unique = ref true in
          for trial = 0 to ctx.trials - 1 do
            let algo = make_algo () in
            let r = Sim.Runner.run ~adversary ~seed:(ctx.seed + trial) ~n ~algo () in
            if not (Sim.Runner.check_unique_names r) then all_unique := false;
            Stats.Summary.acc_add maxs (float_of_int r.Sim.Runner.max_steps);
            Stats.Summary.acc_add avgs
              (float_of_int r.Sim.Runner.total_steps /. float_of_int n);
            Stats.Summary.acc_add names (float_of_int (Sim.Runner.max_name r));
            Stats.Summary.acc_add contention
              (float_of_int r.Sim.Runner.point_contention)
          done;
          Table.add_row table
            [
              alg_name;
              pattern_name;
              Table.cell_float (Stats.Summary.acc_mean maxs);
              Table.cell_float (Stats.Summary.acc_mean avgs);
              Table.cell_float ~decimals:0 (Stats.Summary.acc_mean names);
              Table.cell_float ~decimals:0 (Stats.Summary.acc_mean contention);
              (if !all_unique then "yes" else "NO");
            ])
        patterns)
    algorithms;
  ctx.emit_table
    ~title:(Printf.sprintf "T13: arrival patterns, n=%d total processes" n)
    table;
  ctx.log
    "T13 note: the adaptive namespace bound is in interval contention (total \
     participants), so staggering does not shrink names; steps and \
     uniqueness are pattern-independent."

let exp =
  {
    Experiment.id = "t13";
    title = "Arrival patterns (extension)";
    claim =
      "Extension: correctness and step bounds are independent of when \
       processes arrive, not just of how they interleave";
    body = Experiment.Serial run;
  }
