type measurement = { probes_per_proc : float; max_name : float; unique : bool }

let sim_measure ~ctx ~n spec =
  let algo = Renaming.Machine.drive (Substrate.fast_algo spec) in
  let totals =
    Sweep.collect_seeds ~seed:ctx.Experiment.seed ~trials:ctx.Experiment.trials
      (fun seed ->
        let r = Sim.Runner.run ~seed ~n ~algo () in
        ( float_of_int r.Sim.Runner.total_steps /. float_of_int n,
          float_of_int (Sim.Runner.max_name r),
          Sim.Runner.check_unique_names r ))
  in
  {
    probes_per_proc =
      Stats.Summary.mean (Array.of_list (List.map (fun (p, _, _) -> p) totals));
    max_name =
      Stats.Summary.mean (Array.of_list (List.map (fun (_, m, _) -> m) totals));
    unique = List.for_all (fun (_, _, u) -> u) totals;
  }

let shm_measure ~ctx ~n spec =
  let algo = Renaming.Machine.drive (Substrate.fast_algo spec) in
  let capacity = Substrate.capacity spec in
  let totals =
    Sweep.collect_seeds ~seed:ctx.Experiment.seed ~trials:ctx.Experiment.trials
      (fun seed ->
        let r = Shm.Domain_runner.run ~domains:4 ~seed ~procs:n ~capacity ~algo () in
        ( float_of_int r.Shm.Domain_runner.total_probes /. float_of_int n,
          float_of_int (Shm.Domain_runner.max_name r),
          Shm.Domain_runner.check_unique_names r ))
  in
  {
    probes_per_proc =
      Stats.Summary.mean (Array.of_list (List.map (fun (p, _, _) -> p) totals));
    max_name =
      Stats.Summary.mean (Array.of_list (List.map (fun (_, m, _) -> m) totals));
    unique = List.for_all (fun (_, _, u) -> u) totals;
  }

let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 512 in
  let table =
    Table.create
      ~columns:
        [
          ("algorithm", Table.Left);
          ("substrate", Table.Left);
          ("probes/proc", Table.Right);
          ("max name", Table.Right);
          ("unique", Table.Left);
        ]
  in
  let row alg_name substrate (m : measurement) =
    Table.add_row table
      [
        alg_name;
        substrate;
        Table.cell_float m.probes_per_proc;
        Table.cell_float ~decimals:0 m.max_name;
        (if m.unique then "yes" else "NO");
      ]
  in
  let both label spec =
    row label "simulator" (sim_measure ~ctx ~n spec);
    row label "atomics" (shm_measure ~ctx ~n spec)
  in
  both "rebatching(t0=3)"
    (Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ()));
  both "uniform" (Substrate.uniform ~m:(2 * n) ~max_steps:(1000 * n));
  (* paper constants; the capacity covers the race ladder *)
  both "fast-adaptive"
    (Substrate.fast_adaptive (Renaming.Object_space.create ()));
  ctx.emit_table
    ~title:(Printf.sprintf "T16: simulator vs real atomics, n=%d" n)
    table;
  ctx.log
    "T16 note: substrates may disagree on who wins contended cells, so probe \
     counts match within sampling noise, never exactly."

let exp =
  {
    Experiment.id = "t16";
    title = "Cross-substrate agreement (extension)";
    claim =
      "Reproduction integrity: probe statistics measured on the simulator \
       transfer to real shared memory";
    body = Experiment.Serial run;
  }
