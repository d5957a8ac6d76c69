let sizes (ctx : Experiment.ctx) =
  List.map (Sweep.scaled ctx.scale)
    (Sweep.geometric_sizes ~lo:256 ~hi:262144 ~factor:2)

let jobs (ctx : Experiment.ctx) =
  Experiment.sweep ctx (sizes ctx)
    ~label:(Printf.sprintf "n=%d")
    ~params:(fun n -> [ ("n", float_of_int n) ])
    (fun n ~seed ->
      let per_proc spec =
        float_of_int (Sweep.sequential ~tag:"T2" spec ~seed ~n).Sim.Runner.total_steps
        /. float_of_int n
      in
      [
        ( "rebatch_paper_per_proc",
          per_proc (Substrate.rebatching (Renaming.Rebatching.make ~n ())) );
        ( "rebatch_t0_per_proc",
          per_proc
            (Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())) );
        ( "uniform_per_proc",
          per_proc (Substrate.uniform ~m:(2 * n) ~max_steps:(1000 * n)) );
        ("cyclic_per_proc", per_proc (Substrate.cyclic_scan ~m:(2 * n)));
      ])

let tables (ctx : Experiment.ctx) results =
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("rebatch(paper)/n", Table.Right);
          ("rebatch(t0=3)/n", Table.Right);
          ("uniform/n", Table.Right);
          ("cyclic/n", Table.Right);
        ]
  in
  let tuned = ref [] in
  List.iteri
    (fun point n ->
      let mean = Experiment.mean results ~point in
      let tuned_s = mean "rebatch_t0_per_proc" in
      tuned := (n, tuned_s) :: !tuned;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float (mean "rebatch_paper_per_proc");
          Table.cell_float tuned_s;
          Table.cell_float (mean "uniform_per_proc");
          Table.cell_float (mean "cyclic_per_proc");
        ])
    (sizes ctx);
  ctx.emit_table
    ~title:"T2: total steps per process vs n (flat = O(n) total work)" table;
  let data = List.rev !tuned in
  let sizes_arr = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
  let values = Array.of_list (List.map snd data) in
  ctx.log "T2 fits, rebatching (t0=3) normalized total:";
  List.iter ctx.log
    (Sweep.fit_lines
       ~models:[ Stats.Regression.Const; Stats.Regression.Log_log ]
       ~sizes:sizes_arr ~values)

let exp =
  {
    Experiment.id = "t2";
    title = "Total step complexity vs n";
    claim = "Theorem 4.1: ReBatching's total step complexity is O(n) w.h.p.";
    body = Experiment.Trials { jobs; tables };
  }
