let log2 x = log x /. log 2.

let sizes (ctx : Experiment.ctx) =
  List.map (Sweep.scaled ctx.scale)
    (Sweep.geometric_sizes ~lo:256 ~hi:262144 ~factor:2)

(* One trial at one size runs all four algorithm variants on the same
   seed (common random numbers). *)
let jobs (ctx : Experiment.ctx) =
  Experiment.sweep ctx (sizes ctx)
    ~label:(Printf.sprintf "n=%d")
    ~params:(fun n -> [ ("n", float_of_int n) ])
    (fun n ~seed ->
      let max_steps spec =
        float_of_int (Sweep.sequential ~tag:"T1" spec ~seed ~n).Sim.Runner.max_steps
      in
      [
        ( "rebatch_paper_max",
          max_steps (Substrate.rebatching (Renaming.Rebatching.make ~n ())) );
        ( "rebatch_t0_max",
          max_steps
            (Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n ())) );
        ( "uniform_max",
          max_steps (Substrate.uniform ~m:(2 * n) ~max_steps:(1000 * n)) );
        ("cyclic_max", max_steps (Substrate.cyclic_scan ~m:(2 * n)));
      ])

let tables (ctx : Experiment.ctx) results =
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("rebatch(paper)", Table.Right);
          ("rebatch(t0=3)", Table.Right);
          ("uniform", Table.Right);
          ("cyclic", Table.Right);
          ("loglog2 n", Table.Right);
          ("log2 n", Table.Right);
        ]
  in
  let tuned = ref [] and uniform = ref [] and cyclic = ref [] in
  List.iteri
    (fun point n ->
      let mean = Experiment.mean results ~point in
      let paper_max = mean "rebatch_paper_max" in
      let tuned_max = mean "rebatch_t0_max" in
      let uniform_max = mean "uniform_max" in
      let cyclic_max = mean "cyclic_max" in
      tuned := (n, tuned_max) :: !tuned;
      uniform := (n, uniform_max) :: !uniform;
      cyclic := (n, cyclic_max) :: !cyclic;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float paper_max;
          Table.cell_float tuned_max;
          Table.cell_float uniform_max;
          Table.cell_float cyclic_max;
          Table.cell_float (log2 (log2 (float_of_int n)));
          Table.cell_float (log2 (float_of_int n));
        ])
    (sizes ctx);
  ctx.emit_table ~title:"T1: worst per-process steps vs n (mean over trials)" table;
  let to_points data =
    Array.of_list
      (List.rev_map (fun (n, y) -> (float_of_int n, y)) data)
  in
  ctx.log
    (Stats.Ascii_plot.render ~log_x:true
       ~title:"T1 plot: worst steps vs n (log-x) — flat r vs climbing u/c"
       [
         { Stats.Ascii_plot.label = "rebatching(t0=3)"; marker = 'r';
           points = to_points !tuned };
         { Stats.Ascii_plot.label = "uniform"; marker = 'u';
           points = to_points !uniform };
         { Stats.Ascii_plot.label = "cyclic"; marker = 'c';
           points = to_points !cyclic };
       ]);
  let fits tag data models =
    let data = List.rev data in
    let sizes = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
    let values = Array.of_list (List.map snd data) in
    ctx.log tag;
    List.iter ctx.log (Sweep.fit_lines ~models ~sizes ~values)
  in
  fits "T1 fits, rebatching (t0=3):" !tuned
    [ Stats.Regression.Log_log; Stats.Regression.Log ];
  fits "T1 fits, uniform probing:" !uniform
    [ Stats.Regression.Log_log; Stats.Regression.Log ]

let exp =
  {
    Experiment.id = "t1";
    title = "Step complexity vs n (ReBatching vs baselines)";
    claim =
      "Theorem 4.1: ReBatching takes log log n + O(1) steps w.h.p.; uniform \
       probing pays Theta(log n)";
    body = Experiment.Trials { jobs; tables };
  }
