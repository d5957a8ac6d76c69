let runs (ctx : Experiment.ctx) = max (10 * ctx.trials) 50

(* One independent execution per job, at a single sweep point.  Each job
   reports its own exceedance count at every batch-boundary threshold
   (exceeding t0 + i - 1 means the process survived into batch i). *)
let jobs (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 4096 in
  let runs = runs ctx in
  Experiment.sweep ctx [ n ]
    ~trials:(fun _ -> runs)
    ~label:(Printf.sprintf "n=%d")
    ~params:(fun n -> [ ("n", float_of_int n); ("runs", float_of_int runs) ])
    (fun n ~seed ->
      let instance = Renaming.Rebatching.make ~t0:3 ~n () in
      let t0 = Renaming.Rebatching.probe_budget instance 0 in
      let kappa = Renaming.Rebatching.kappa instance in
      let r =
        Sweep.sequential ~tag:"T12" (Substrate.rebatching instance) ~seed ~n
      in
      let exceed threshold =
        Array.fold_left
          (fun acc s -> if s > threshold then acc + 1 else acc)
          0 r.Sim.Runner.steps
      in
      let tail =
        List.init (kappa + 1) (fun i ->
            ( Printf.sprintf "exceed_batch_%d" i,
              float_of_int (exceed (t0 + i - 1)) ))
      in
      ("max_steps", float_of_int r.Sim.Runner.max_steps)
      :: ("total_per_proc", float_of_int r.Sim.Runner.total_steps /. float_of_int n)
      :: tail)

let tables (ctx : Experiment.ctx) results =
  let n = Sweep.scaled ctx.scale 4096 in
  let runs = runs ctx in
  let instance = Renaming.Rebatching.make ~t0:3 ~n () in
  let t0 = Renaming.Rebatching.probe_budget instance 0 in
  let kappa = Renaming.Rebatching.kappa instance in
  (* Per-process step counts pooled across all runs. *)
  let total = n * runs in
  let tail_table =
    Table.create
      ~columns:
        [
          ("threshold j", Table.Right);
          ("P[steps > j]", Table.Right);
          ("batch analogy 2^-(2^i)", Table.Right);
        ]
  in
  for i = 0 to kappa do
    let exceed =
      Array.fold_left ( +. ) 0.
        (Experiment.values results ~point:0
           (Printf.sprintf "exceed_batch_%d" i))
    in
    let analogy =
      if i = 0 then nan else 2. ** (-.(2. ** float_of_int i))
    in
    Table.add_row tail_table
      [
        Table.cell_int (t0 + i - 1);
        Printf.sprintf "%.2e" (exceed /. float_of_int total);
        (if Float.is_nan analogy then "-" else Printf.sprintf "%.2e" analogy);
      ]
  done;
  ctx.emit_table
    ~title:
      (Printf.sprintf
         "T12: per-process step tail, n=%d, %d runs (%d process samples)" n runs
         total)
    tail_table;
  (* Quantiles of the per-run maximum, with bootstrap CIs.  The maxima
     are resampled in reverse trial order. *)
  let maxima =
    Array.of_list
      (List.rev
         (Array.to_list (Experiment.values results ~point:0 "max_steps")))
  in
  let rng = Prng.Splitmix.of_int (ctx.seed + 1_000_003) in
  let quantile_table =
    Table.create
      ~columns:
        [
          ("statistic of run max", Table.Left);
          ("value", Table.Right);
          ("95% bootstrap CI", Table.Left);
        ]
  in
  List.iter
    (fun (label, statistic) ->
      let iv = Stats.Bootstrap.ci rng ~statistic maxima in
      Table.add_row quantile_table
        [
          label;
          Table.cell_float iv.Stats.Bootstrap.point;
          Printf.sprintf "[%.2f, %.2f]" iv.Stats.Bootstrap.low
            iv.Stats.Bootstrap.high;
        ])
    [
      ("median", fun xs -> Stats.Summary.percentile xs 0.5);
      ("p95", fun xs -> Stats.Summary.percentile xs 0.95);
      ("max", Array.fold_left Float.max neg_infinity);
      ("mean", Stats.Summary.mean);
    ];
  ctx.emit_table
    ~title:"T12: distribution of the per-run worst process" quantile_table;
  let bound = t0 + kappa - 1 + Renaming.Rebatching.probe_budget instance kappa in
  let over =
    Array.fold_left
      (fun acc m -> if m > float_of_int bound then acc + 1 else acc)
      0 maxima
  in
  ctx.log
    (Printf.sprintf
       "T12: runs exceeding the deterministic phase budget t0+kappa-1+beta = \
        %d: %d of %d (backup-phase events; Theorem 4.1 predicts ~0)."
       bound over runs)

let exp =
  {
    Experiment.id = "t12";
    title = "Tail of the step distribution (w.h.p. claims)";
    claim =
      "Theorem 4.1 + Lemma 4.2: P[a process exceeds t0 + i probes] decays \
       doubly exponentially in i";
    body = Experiment.Trials { jobs; tables };
  }
