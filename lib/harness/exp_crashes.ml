let measure ~ctx ~n ~fraction make_algo =
  let maxs = Stats.Summary.acc_create () in
  let crashes = Stats.Summary.acc_create () in
  let names = Stats.Summary.acc_create () in
  let all_unique = ref true in
  let all_progress = ref true in
  for trial = 0 to ctx.Experiment.trials - 1 do
    let adversary =
      if fraction = 0. then Sim.Adversary.greedy_collision
      else Sim.Adversary.with_crashes ~fraction Sim.Adversary.greedy_collision
    in
    let algo = make_algo () in
    let r = Sim.Runner.run ~adversary ~seed:(ctx.seed + trial) ~n ~algo () in
    if not (Sim.Runner.check_unique_names r) then all_unique := false;
    (* Progress, separately from uniqueness: every survivor terminated
       with a name.  The distinction matters at fraction (n-1)/n, where
       "unique" over one survivor is vacuous but progress is not. *)
    for pid = 0 to n - 1 do
      if (not r.Sim.Runner.crashed.(pid)) && r.Sim.Runner.names.(pid) = None
      then all_progress := false
    done;
    Stats.Summary.acc_add maxs (float_of_int r.Sim.Runner.max_steps);
    Stats.Summary.acc_add crashes (float_of_int r.Sim.Runner.crash_count);
    Stats.Summary.acc_add names (float_of_int (Sim.Runner.max_name r))
  done;
  ( Stats.Summary.acc_mean maxs,
    Stats.Summary.acc_mean crashes,
    Stats.Summary.acc_mean names,
    !all_unique,
    !all_progress )

let run_for ~ctx ~n ~label make_algo =
  let table =
    Table.create
      ~columns:
        [
          ("crash fraction", Table.Right);
          ("crashed (mean)", Table.Right);
          ("survivor max steps", Table.Right);
          ("max name", Table.Right);
          ("unique", Table.Left);
          ("progress", Table.Left);
        ]
  in
  List.iter
    (fun fraction ->
      let max_steps, crashed, max_name, unique, progress =
        measure ~ctx ~n ~fraction make_algo
      in
      Table.add_row table
        [
          Table.cell_float fraction;
          Table.cell_float ~decimals:1 crashed;
          Table.cell_float max_steps;
          Table.cell_float ~decimals:0 max_name;
          (if unique then "yes" else "NO");
          (if progress then "yes" else "NO");
        ])
    (* (n-1)/n is the all-but-one-crashed edge: uniqueness over a single
       survivor is vacuous, so the progress column carries the claim. *)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; float_of_int (n - 1) /. float_of_int n ];
  ctx.Experiment.emit_table
    ~title:(Printf.sprintf "T8: crash tolerance, %s, n=%d" label n)
    table

let run (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 256 in
  let rebatch = Renaming.Rebatching.make ~n () in
  run_for ~ctx ~n ~label:"ReBatching" (fun () ->
      fun env -> Renaming.Rebatching.get_name env rebatch);
  run_for ~ctx ~n ~label:"AdaptiveReBatching" (fun () ->
      let space = Renaming.Object_space.create () in
      fun env -> Renaming.Adaptive_rebatching.get_name env space)

let exp =
  {
    Experiment.id = "t8";
    title = "Crash-failure tolerance";
    claim =
      "§2: under any number of crashes, survivors terminate with unique names";
    body = Experiment.Serial run;
  }
