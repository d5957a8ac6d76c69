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
        let r = Sweep.sequential ~tag:"T6" spec ~seed ~n:k in
        ( float_of_int r.Sim.Runner.total_steps /. float_of_int k,
          float_of_int (Sim.Runner.max_name r) )
      in
      let fast_per, fast_name =
        measure (Substrate.fast_adaptive (Renaming.Object_space.create ()))
      in
      let adaptive_per, _ =
        measure (Substrate.adaptive (Renaming.Object_space.create ()))
      in
      let fast_tuned_per, _ =
        measure (Substrate.fast_adaptive (Renaming.Object_space.create ~t0:3 ()))
      in
      let adaptive_tuned_per, _ =
        measure (Substrate.adaptive (Renaming.Object_space.create ~t0:3 ()))
      in
      [
        ("fast_per_proc", fast_per);
        ("fast_name", fast_name);
        ("adaptive_per_proc", adaptive_per);
        ("fast_t0_per_proc", fast_tuned_per);
        ("adaptive_t0_per_proc", adaptive_tuned_per);
      ])

let tables (ctx : Experiment.ctx) results =
  let table =
    Table.create
      ~columns:
        [
          ("k", Table.Right);
          ("fast total/k", Table.Right);
          ("adaptive total/k", Table.Right);
          ("fast(t0=3)", Table.Right);
          ("adaptive(t0=3)", Table.Right);
          ("loglog2 k", Table.Right);
          ("fast max name", Table.Right);
          ("name/k", Table.Right);
        ]
  in
  let fast_series = ref [] and fast_tuned_series = ref [] in
  List.iteri
    (fun point k ->
      let mean key = Stats.Summary.mean (Experiment.values results ~point key) in
      let fast_per = mean "fast_per_proc" in
      let fast_name = mean "fast_name" in
      let fast_tuned_per = mean "fast_t0_per_proc" in
      fast_series := (k, fast_per) :: !fast_series;
      fast_tuned_series := (k, fast_tuned_per) :: !fast_tuned_series;
      let fk = float_of_int k in
      let ll = log2 (log2 (Float.max 4. fk)) in
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_float fast_per;
          Table.cell_float (mean "adaptive_per_proc");
          Table.cell_float fast_tuned_per;
          Table.cell_float (mean "adaptive_t0_per_proc");
          Table.cell_float ll;
          Table.cell_float ~decimals:0 fast_name;
          Table.cell_float (fast_name /. fk);
        ])
    (sizes ctx);
  ctx.emit_table
    ~title:"T6: total steps per process vs k (FastAdaptive vs Adaptive)" table;
  let fits tag data =
    let data = List.rev data in
    let sizes_arr = Array.of_list (List.map (fun (k, _) -> float_of_int k) data) in
    let values = Array.of_list (List.map snd data) in
    ctx.log tag;
    List.iter ctx.log
      (Sweep.fit_lines
         ~models:
           [ Stats.Regression.Log_log; Stats.Regression.Log_log_sq; Stats.Regression.Log ]
         ~sizes:sizes_arr ~values)
  in
  fits "T6 fits, FastAdaptive (paper constants) normalized total steps:" !fast_series;
  fits "T6 fits, FastAdaptive (t0=3) normalized total steps:" !fast_tuned_series

let exp =
  {
    Experiment.id = "t6";
    title = "FastAdaptiveReBatching total step complexity";
    claim =
      "Theorem 5.2: total step complexity O(k log log k) w.h.p., largest name \
       O(k) w.h.p.";
    body = Experiment.Trials { jobs; tables };
  }
