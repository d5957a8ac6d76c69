(* F2b: the layered game played by concrete uniform types — the
   post-reduction world of §6.1, no Poisson machinery. *)
let direct_table (ctx : Experiment.ctx) sizes =
  let trials = max ctx.trials 10 in
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("layers to empty (mean)", Table.Right);
          ("(max)", Table.Right);
          ("probes/proc", Table.Right);
          ("loglog2 n", Table.Right);
        ]
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let s = 4 * n in
      let runs =
        Sweep.collect_seeds ~seed:ctx.seed ~trials (fun seed ->
            Lowerbound.Layered_exec.run ~seed ~n ~s Lowerbound.Layered_exec.Uniform)
      in
      let layers =
        Stats.Summary.mean
          (Array.of_list
             (List.map
                (fun (r : Lowerbound.Layered_exec.result) -> float_of_int r.layers)
                runs))
      in
      let max_layers =
        List.fold_left
          (fun acc (r : Lowerbound.Layered_exec.result) -> max acc r.layers)
          0 runs
      in
      let probes =
        Stats.Summary.mean
          (Array.of_list
             (List.map
                (fun (r : Lowerbound.Layered_exec.result) ->
                  float_of_int r.total_probes /. float_of_int n)
                runs))
      in
      series := (n, layers) :: !series;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float layers;
          Table.cell_int max_layers;
          Table.cell_float probes;
          Table.cell_float (log (log (float_of_int n) /. log 2.) /. log 2.);
        ])
    sizes;
  ctx.emit_table
    ~title:
      "F2b: direct layered game with uniform types (layers until every \
       process wins)"
    table;
  let data = List.rev !series in
  let sizes_arr = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
  let values = Array.of_list (List.map snd data) in
  ctx.log
    (Stats.Ascii_plot.render ~log_x:true ~height:10
       ~title:"F2b plot: layers to empty vs n (log-x) — the loglog staircase"
       [
         {
           Stats.Ascii_plot.label = "layers to empty";
           marker = '#';
           points =
             Array.of_list (List.rev_map (fun (n, y) -> (float_of_int n, y)) !series);
         };
       ]);
  ctx.log "F2b fits, layers to empty:";
  List.iter ctx.log
    (Sweep.fit_lines
       ~models:[ Stats.Regression.Log_log; Stats.Regression.Log ]
       ~sizes:sizes_arr ~values)

(* F2c: the Lemma 6.2/6.3 reduction, executed.  ReBatching's probe
   sequence is a pure function of its coins (it only stops early on a
   win), so recording its probes under all-loss responses yields exactly
   the "type" of §6.1; the layered game over those types lower-bounds the
   real execution's survivors. *)
let extract_rebatching_types ~seed ~n ~prefix instance =
  let exception Enough in
  let root = Prng.Splitmix.of_int seed in
  Array.init n (fun pid ->
      let rng = Prng.Splitmix.split_at root pid in
      let probes = ref [] in
      let count = ref 0 in
      let env =
        Renaming.Env.make ~pid
          ~tas:(fun loc ->
            probes := loc :: !probes;
            incr count;
            (* only the first [prefix] probes can matter (the game never
               runs that many layers); abort the all-loss run there
               instead of letting it scan the whole backup range *)
            if !count >= prefix then raise_notrace Enough;
            false)
          ~random_int:(Prng.Splitmix.int rng) ()
      in
      (try ignore (Renaming.Rebatching.get_name env instance)
       with Enough -> ());
      Array.of_list (List.rev !probes))

let reduction_table (ctx : Experiment.ctx) sizes =
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("rebatching types: layers (mean)", Table.Right);
          ("uniform types: layers (mean)", Table.Right);
          ("loglog2 n", Table.Right);
        ]
  in
  let trials = max ctx.trials 5 in
  List.iter
    (fun n ->
      let instance = Renaming.Rebatching.make ~t0:3 ~n () in
      let s = Renaming.Rebatching.size instance in
      let rebatch_layers =
        Sweep.over_seeds ~seed:ctx.seed ~trials (fun seed ->
            let types = extract_rebatching_types ~seed ~n ~prefix:32 instance in
            let r = Lowerbound.Layered_exec.run_with_types ~seed ~types ~s () in
            float_of_int r.Lowerbound.Layered_exec.layers)
      in
      let uniform_layers =
        Sweep.over_seeds ~seed:ctx.seed ~trials (fun seed ->
            let r =
              Lowerbound.Layered_exec.run ~seed ~n ~s Lowerbound.Layered_exec.Uniform
            in
            float_of_int r.Lowerbound.Layered_exec.layers)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float rebatch_layers.Stats.Summary.mean;
          Table.cell_float uniform_layers.Stats.Summary.mean;
          Table.cell_float (log (log (float_of_int n) /. log 2.) /. log 2.);
        ])
    (List.filter (fun n -> n <= 65536) sizes);
  ctx.emit_table
    ~title:
      "F2c: the Lemma 6.2/6.3 reduction executed on real ReBatching types \
       (layers until every type wins)"
    table

let run (ctx : Experiment.ctx) =
  let sizes =
    List.map (Sweep.scaled ctx.scale)
      (Sweep.geometric_sizes ~lo:64 ~hi:1048576 ~factor:4)
  in
  let trials = max ctx.trials 10 in
  let table =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("layers survived (mean)", Table.Right);
          ("(max)", Table.Right);
          ("predicted layers", Table.Right);
          ("survive >= pred (%)", Table.Right);
          ("r0", Table.Right);
        ]
  in
  let series = ref [] in
  List.iter
    (fun n ->
      let config = Lowerbound.Marking.default_config ~n in
      let survived =
        Sweep.collect_seeds ~seed:ctx.seed ~trials (fun seed ->
            Lowerbound.Marking.layers_survived
              (Lowerbound.Marking.run ~seed config))
      in
      let predicted =
        Lowerbound.Theory.predicted_layers ~n ~s:(config.locations / 2)
          ~m:(config.locations / 2)
      in
      let mean =
        Stats.Summary.mean (Array.of_list (List.map float_of_int survived))
      in
      let maxv = List.fold_left max 0 survived in
      let at_least =
        List.length (List.filter (fun l -> float_of_int l >= predicted) survived)
      in
      series := (n, mean) :: !series;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float mean;
          Table.cell_int maxv;
          Table.cell_float predicted;
          Table.cell_float ~decimals:0
            (100. *. float_of_int at_least /. float_of_int trials);
          Table.cell_float ~decimals:3
            (float_of_int n /. 2. /. float_of_int config.locations);
        ])
    sizes;
  ctx.emit_table
    ~title:"F2a: marked-process survival vs n (Theorem 6.1 lower bound)" table;
  direct_table ctx sizes;
  reduction_table ctx sizes;
  let data = List.rev !series in
  let sizes_arr = Array.of_list (List.map (fun (n, _) -> float_of_int n) data) in
  let values = Array.of_list (List.map snd data) in
  ctx.log "F2 fits, layers survived:";
  List.iter ctx.log
    (Sweep.fit_lines
       ~models:[ Stats.Regression.Log_log; Stats.Regression.Log; Stats.Regression.Const ]
       ~sizes:sizes_arr ~values);
  ctx.log
    (Printf.sprintf
       "F2 note: Theorem 6.1's success probability bound is %.5f; survival \
        beyond the predicted layer count needs only constant probability."
       (Lowerbound.Theory.survival_probability_bound ()))

let exp =
  {
    Experiment.id = "f2";
    title = "Lower-bound layered execution survival";
    claim =
      "Theorem 6.1: with constant probability some process takes \
       Omega(log log n) steps under the oblivious layered adversary";
    body = Experiment.Serial run;
  }
