let log2 x = log x /. log 2.

let sizes (ctx : Experiment.ctx) =
  List.map (Sweep.scaled ctx.scale)
    (Sweep.geometric_sizes ~lo:4 ~hi:16384 ~factor:2)

let jobs (ctx : Experiment.ctx) =
  Experiment.sweep ctx (sizes ctx)
    ~label:(Printf.sprintf "k=%d")
    ~params:(fun k -> [ ("k", float_of_int k) ])
    (fun k ~seed ->
      let measure spec =
        let r = Sweep.sequential ~tag:"T5" spec ~seed ~n:k in
        ( float_of_int r.Sim.Runner.max_steps,
          float_of_int (Sim.Runner.max_name r) )
      in
      let adaptive_steps, adaptive_name =
        measure (Substrate.adaptive (Renaming.Object_space.create ()))
      in
      let tuned_steps, _ =
        measure (Substrate.adaptive (Renaming.Object_space.create ~t0:3 ()))
      in
      let doubling_steps, _ =
        measure (Substrate.adaptive_doubling (Renaming.Object_space.create ()))
      in
      [
        ("adaptive_paper_max", adaptive_steps);
        ("adaptive_paper_name", adaptive_name);
        ("adaptive_t0_max", tuned_steps);
        ("doubling_max", doubling_steps);
      ])

let tables (ctx : Experiment.ctx) results =
  let table =
    Table.create
      ~columns:
        [
          ("k", Table.Right);
          ("adaptive(paper)", Table.Right);
          ("adaptive(t0=3)", Table.Right);
          ("doubling", Table.Right);
          ("(loglog2 k)^2", Table.Right);
          ("log2 k", Table.Right);
          ("max name", Table.Right);
          ("name/k", Table.Right);
        ]
  in
  let paper_series = ref [] and tuned_series = ref [] in
  List.iteri
    (fun point k ->
      let mean key = Stats.Summary.mean (Experiment.values results ~point key) in
      let adaptive_steps = mean "adaptive_paper_max" in
      let adaptive_name = mean "adaptive_paper_name" in
      let tuned_steps = mean "adaptive_t0_max" in
      paper_series := (k, adaptive_steps) :: !paper_series;
      tuned_series := (k, tuned_steps) :: !tuned_series;
      let fk = float_of_int k in
      let ll = log2 (log2 (Float.max 4. fk)) in
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_float adaptive_steps;
          Table.cell_float tuned_steps;
          Table.cell_float (mean "doubling_max");
          Table.cell_float (ll *. ll);
          Table.cell_float (log2 fk);
          Table.cell_float ~decimals:0 adaptive_name;
          Table.cell_float (adaptive_name /. fk);
        ])
    (sizes ctx);
  ctx.emit_table ~title:"T5: adaptive renaming, steps and namespace vs contention k"
    table;
  let fits tag data =
    let data = List.rev data in
    let sizes_arr = Array.of_list (List.map (fun (k, _) -> float_of_int k) data) in
    let values = Array.of_list (List.map snd data) in
    ctx.log tag;
    List.iter ctx.log
      (Sweep.fit_lines
         ~models:
           [ Stats.Regression.Log_log_sq; Stats.Regression.Log_log; Stats.Regression.Log ]
         ~sizes:sizes_arr ~values)
  in
  fits "T5 fits, AdaptiveReBatching (paper constants) worst steps:" !paper_series;
  fits "T5 fits, AdaptiveReBatching (t0=3) worst steps:" !tuned_series

let exp =
  {
    Experiment.id = "t5";
    title = "AdaptiveReBatching step complexity and namespace";
    claim =
      "Theorem 5.1: O((log log k)^2) steps and largest name O(k), both w.h.p.";
    body = Experiment.Trials { jobs; tables };
  }
