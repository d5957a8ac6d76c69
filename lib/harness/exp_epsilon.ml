let epsilons = [ 0.1; 0.25; 0.5; 1.0; 2.0 ]

let jobs (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 4096 in
  Experiment.sweep ctx epsilons
    ~label:(Printf.sprintf "eps=%g")
    ~params:(fun epsilon -> [ ("epsilon", epsilon); ("n", float_of_int n) ])
    (fun epsilon ~seed ->
      let instance = Renaming.Rebatching.make ~epsilon ~n () in
      let backups = ref 0 in
      let on_event ~pid:_ = function
        | Renaming.Events.Backup_entered _ -> incr backups
        | _ -> ()
      in
      let algo env = Renaming.Rebatching.get_name env instance in
      let r = Sim.Runner.run_sequential ~on_event ~seed ~n ~algo () in
      if not (Sim.Runner.check_unique_names r) then
        failwith "T9: uniqueness violated";
      [
        ("max_steps", float_of_int r.Sim.Runner.max_steps);
        ( "total_per_proc",
          float_of_int r.Sim.Runner.total_steps /. float_of_int n );
        ("backups", float_of_int !backups);
        ( "m_over_n",
          float_of_int (Renaming.Rebatching.size instance) /. float_of_int n );
        ("t0", float_of_int (Renaming.Rebatching.probe_budget instance 0));
      ])

let tables (ctx : Experiment.ctx) results =
  let n = Sweep.scaled ctx.scale 4096 in
  let table =
    Table.create
      ~columns:
        [
          ("epsilon", Table.Right);
          ("m/n", Table.Right);
          ("paper t0", Table.Right);
          ("max steps", Table.Right);
          ("total/n", Table.Right);
          ("backups", Table.Right);
        ]
  in
  List.iteri
    (fun point epsilon ->
      let instance = Renaming.Rebatching.make ~epsilon ~n () in
      let backups =
        Array.fold_left ( +. ) 0. (Experiment.values results ~point "backups")
      in
      Table.add_row table
        [
          Table.cell_float epsilon;
          Table.cell_ratio (float_of_int (Renaming.Rebatching.size instance))
            (float_of_int n);
          Table.cell_int (Renaming.Rebatching.probe_budget instance 0);
          Table.cell_float (Experiment.mean results ~point "max_steps");
          Table.cell_float (Experiment.mean results ~point "total_per_proc");
          Table.cell_int (int_of_float backups);
        ])
    epsilons;
  ctx.emit_table
    ~title:(Printf.sprintf "T9: namespace slack epsilon vs cost, n=%d" n)
    table

let exp =
  {
    Experiment.id = "t9";
    title = "Namespace/time trade-off in epsilon";
    claim =
      "§4: namespace (1+eps)n costs t0 = Theta(ln(1/eps)/eps) probes in batch \
       0; shape stays log log n + O(1)";
    body = Experiment.Trials { jobs; tables };
  }
