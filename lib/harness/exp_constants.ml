type row = {
  label : string;
  max_steps : float;
  total_per_proc : float;
  batch0_survivors : float;
  backups : int;
}

let measure_rebatching ~ctx ~n ~t0 ~beta =
  let instance = Renaming.Rebatching.make ~t0 ~beta ~n () in
  let backups = ref 0 in
  let batch0_failures = ref 0 in
  let on_event ~pid:_ = function
    | Renaming.Events.Backup_entered _ -> incr backups
    | Renaming.Events.Batch_failed { batch = 0; _ } -> incr batch0_failures
    | _ -> ()
  in
  let algo env = Renaming.Rebatching.get_name env instance in
  let maxs = Stats.Summary.acc_create () in
  let totals = Stats.Summary.acc_create () in
  for trial = 0 to ctx.Experiment.trials - 1 do
    let r =
      Sim.Runner.run_sequential ~on_event ~seed:(ctx.Experiment.seed + trial) ~n
        ~algo ()
    in
    if not (Sim.Runner.check_unique_names r) then failwith "T10: uniqueness violated";
    Stats.Summary.acc_add maxs (float_of_int r.Sim.Runner.max_steps);
    Stats.Summary.acc_add totals
      (float_of_int r.Sim.Runner.total_steps /. float_of_int n)
  done;
  {
    label = Printf.sprintf "t0=%d beta=%d" t0 beta;
    max_steps = Stats.Summary.acc_mean maxs;
    total_per_proc = Stats.Summary.acc_mean totals;
    batch0_survivors = float_of_int !batch0_failures /. float_of_int ctx.trials;
    backups = !backups;
  }

let measure_unbatched ~ctx ~n =
  let m = 2 * n in
  let algo env = Baselines.Uniform_probe.get_name env ~m ~max_steps:(1000 * n) in
  let maxs = Stats.Summary.acc_create () in
  let totals = Stats.Summary.acc_create () in
  for trial = 0 to ctx.Experiment.trials - 1 do
    let r = Sim.Runner.run_sequential ~seed:(ctx.Experiment.seed + trial) ~n ~algo () in
    if not (Sim.Runner.check_unique_names r) then failwith "T10: uniqueness violated";
    Stats.Summary.acc_add maxs (float_of_int r.Sim.Runner.max_steps);
    Stats.Summary.acc_add totals
      (float_of_int r.Sim.Runner.total_steps /. float_of_int n)
  done;
  {
    label = "no batching (uniform)";
    max_steps = Stats.Summary.acc_mean maxs;
    total_per_proc = Stats.Summary.acc_mean totals;
    batch0_survivors = nan;
    backups = 0;
  }

let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 4096 in
  let table =
    Table.create
      ~columns:
        [
          ("variant", Table.Left);
          ("max steps", Table.Right);
          ("total/n", Table.Right);
          ("batch-0 survivors", Table.Right);
          ("backups", Table.Right);
        ]
  in
  let rows =
    List.concat_map
      (fun t0 ->
        List.map (fun beta -> measure_rebatching ~ctx ~n ~t0 ~beta) [ 1; 3 ])
      [ 1; 2; 3; 5; 10; 53 ]
    @ [ measure_unbatched ~ctx ~n ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.label;
          Table.cell_float r.max_steps;
          Table.cell_float r.total_per_proc;
          Table.cell_float ~decimals:1 r.batch0_survivors;
          Table.cell_int r.backups;
        ])
    rows;
  ctx.emit_table
    ~title:(Printf.sprintf "T10: probe-budget ablation, n=%d, eps=1" n)
    table;
  ctx.log
    "T10 note: larger t0 trades batch-0 work for fewer batch survivors; the \
     paper constant makes survivors (hence later batches) essentially empty."

let exp =
  {
    Experiment.id = "t10";
    title = "Probe-budget constants ablation";
    claim =
      "§4: t0/beta set by Lemma 4.2's union bounds; batching (not the \
       constants) delivers the log log n shape";
    body = Experiment.Serial run;
  }
