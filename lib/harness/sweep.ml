let geometric_sizes ~lo ~hi ~factor =
  if lo < 1 || hi < lo then invalid_arg "Sweep.geometric_sizes: need 1 <= lo <= hi";
  if factor < 2 then invalid_arg "Sweep.geometric_sizes: factor must be >= 2";
  let rec go n acc = if n > hi then List.rev acc else go (n * factor) (n :: acc) in
  go lo []

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let collect_seeds ~seed ~trials f =
  if trials < 1 then invalid_arg "Sweep.collect_seeds: trials must be >= 1";
  List.init trials (fun i -> f (seed + i))

let over_seeds ~seed ~trials f =
  Stats.Summary.of_array (Array.of_list (collect_seeds ~seed ~trials f))

let fit_lines ~models ~sizes ~values =
  List.map
    (fun m ->
      let fit = Stats.Regression.fit_model m ~sizes ~values in
      Printf.sprintf "  fit y = a + b*%-13s  b=%8.3f  a=%8.3f  R^2=%.4f"
        (Stats.Regression.model_name m)
        fit.Stats.Regression.slope fit.Stats.Regression.intercept
        fit.Stats.Regression.r2)
    models

let sequential ~tag spec ~seed ~n =
  let r =
    Sim.Fast_core.run_sequential_once ~seed ~n ~algo:(Substrate.fast_algo spec)
      ()
  in
  if not (Sim.Runner.check_unique_names r) then
    failwith (tag ^ ": uniqueness violated");
  r
