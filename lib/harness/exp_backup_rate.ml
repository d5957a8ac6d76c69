let count_backups ~seed ~procs instance =
  let backups = ref 0 in
  let on_event ~pid:_ = function
    | Renaming.Events.Backup_entered _ -> incr backups
    | _ -> ()
  in
  let algo env = Renaming.Rebatching.get_name env instance in
  let _ = Sim.Runner.run_sequential ~on_event ~seed ~n:procs ~algo () in
  !backups

let run (ctx : Experiment.ctx) =
  let sizes =
    List.map (Sweep.scaled ctx.scale) (Sweep.geometric_sizes ~lo:256 ~hi:16384 ~factor:4)
  in
  let trials = max ctx.trials 20 in
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("trials", Table.Right);
          ("backup entries", Table.Right);
          ("bound 1/n^(beta-o(1))", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let instance = Renaming.Rebatching.make ~n () in
      let total = ref 0 in
      for trial = 0 to trials - 1 do
        total := !total + count_backups ~seed:(ctx.seed + trial) ~procs:n instance
      done;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int trials;
          Table.cell_int !total;
          Printf.sprintf "%.1e"
            (1. /. (float_of_int n ** float_of_int Renaming.Rebatching.default_beta));
        ])
    sizes;
  ctx.emit_table ~title:"T4: backup-phase entries (expected 0 at every n)" table;
  (* Positive control: overload an instance far past its design load so the
     probabilistic phases must fail for some processes. *)
  let small = Renaming.Rebatching.make ~t0:1 ~n:8 () in
  let control = count_backups ~seed:ctx.seed ~procs:14 small in
  ctx.log
    (Printf.sprintf
       "T4 control: overloaded instance (n=8 design, 14 procs, t0=1) entered \
        backup %d times — instrumentation confirmed live."
       control)

let exp =
  {
    Experiment.id = "t4";
    title = "Backup-phase frequency";
    claim = "§4: the backup scan runs with probability <= 1/n^(beta-o(1))";
    body = Experiment.Serial run;
  }
