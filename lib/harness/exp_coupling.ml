let lambda_grid = [ 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ]

let cdf_table (ctx : Experiment.ctx) =
  let table =
    Table.create
      ~columns:
        [
          ("lambda", Table.Right);
          ("gamma", Table.Right);
          ("CDF violations (n<=200)", Table.Right);
          ("min margin", Table.Right);
        ]
  in
  List.iter
    (fun lambda ->
      let gamma = Lowerbound.Coupling.gamma_of lambda in
      let violations = ref 0 in
      let min_margin = ref infinity in
      for n = 0 to 200 do
        let margin =
          Prng.Dist.poisson_cdf ~lambda:gamma n
          -. Prng.Dist.poisson_cdf ~lambda (n + 1)
        in
        if margin < -1e-12 then incr violations;
        if margin < !min_margin then min_margin := margin
      done;
      Table.add_row table
        [
          Table.cell_float lambda;
          Table.cell_float ~decimals:4 gamma;
          Table.cell_int !violations;
          Printf.sprintf "%.2e" !min_margin;
        ])
    lambda_grid;
  ctx.emit_table ~title:"F1a: Lemma 6.5 CDF domination P_lambda(n+1) <= P_gamma(n)"
    table

let coupling_table (ctx : Experiment.ctx) =
  let rng = Prng.Splitmix.of_int ctx.seed in
  let samples = 20_000 in
  let table =
    Table.create
      ~columns:
        [
          ("lambda", Table.Right);
          ("gamma", Table.Right);
          ("mean Z", Table.Right);
          ("mean Y", Table.Right);
          ("Y > max(0,Z-1)", Table.Right);
        ]
  in
  List.iter
    (fun lambda ->
      let gamma = Lowerbound.Coupling.gamma_of lambda in
      let sum_z = ref 0 and sum_y = ref 0 and violations = ref 0 in
      for _ = 1 to samples do
        let z, y = Lowerbound.Coupling.joint_sample rng ~lambda in
        sum_z := !sum_z + z;
        sum_y := !sum_y + y;
        if y > max 0 (z - 1) then incr violations
      done;
      Table.add_row table
        [
          Table.cell_float lambda;
          Table.cell_float ~decimals:4 gamma;
          Table.cell_float ~decimals:4 (float_of_int !sum_z /. float_of_int samples);
          Table.cell_float ~decimals:4 (float_of_int !sum_y /. float_of_int samples);
          Table.cell_int !violations;
        ])
    lambda_grid;
  ctx.emit_table
    ~title:
      (Printf.sprintf "F1b: realized coupling over %d samples per rate" samples)
    table

let recursion_table (ctx : Experiment.ctx) =
  let n = Sweep.scaled ctx.scale 16384 in
  let config = Lowerbound.Marking.default_config ~n in
  let result = Lowerbound.Marking.run ~seed:ctx.seed config in
  let table =
    Table.create
      ~columns:
        [
          ("layer", Table.Right);
          ("marked", Table.Right);
          ("rate lambda^l", Table.Right);
          ("Lemma 6.6 bound", Table.Right);
          ("holds", Table.Left);
        ]
  in
  let prev_rate = ref nan in
  Array.iter
    (fun (ls : Lowerbound.Marking.layer_stats) ->
      let bound =
        if Float.is_nan !prev_rate then nan
        else
          Lowerbound.Theory.rate_recursion_lower_bound ~s:config.locations
            ~lambda:!prev_rate
      in
      Table.add_row table
        [
          Table.cell_int ls.layer;
          Table.cell_int ls.marked;
          Table.cell_float ~decimals:4 ls.rate;
          Table.cell_float ~decimals:4 bound;
          (if Float.is_nan bound then "-"
           else if ls.rate >= bound -. 1e-9 then "yes"
           else "NO");
        ];
      prev_rate := ls.rate)
    result.series;
  ctx.emit_table
    ~title:
      (Printf.sprintf "F1c: marking dynamics vs Lemma 6.6 recursion, n=%d, s=%d" n
         config.locations)
    table

let run (ctx : Experiment.ctx) =
  cdf_table ctx;
  coupling_table ctx;
  recursion_table ctx

let exp =
  {
    Experiment.id = "f1";
    title = "Coupling gadget and rate recursion";
    claim =
      "Lemmas 6.4-6.6: Pois(gamma) coupling with Y <= max(0,Z-1) exists and \
       the marked rate obeys lambda' >= lambda^2/(4s)";
    body = Experiment.Serial run;
  }
