(* The derivation chain: start from the root seed's generator, absorb the
   experiment id one character at a time (split_at is pure in its index,
   so the chain is a pure function of the string), then descend two more
   levels for the sweep point and the trial.  No step advances a shared
   generator, so derivations commute and are order-independent. *)

let of_experiment ~root ~experiment =
  let g = Prng.Splitmix.of_int root in
  (* Absorb length first so "t1" and "t12" prefix-relate differently. *)
  let g = Prng.Splitmix.split_at g (String.length experiment) in
  String.fold_left (fun g c -> Prng.Splitmix.split_at g (Char.code c)) g experiment

let rng ~root ~experiment ~sweep_point ~trial =
  let g = of_experiment ~root ~experiment in
  let g = Prng.Splitmix.split_at g sweep_point in
  Prng.Splitmix.split_at g trial

let derive ~root ~experiment ~sweep_point ~trial =
  Prng.Splitmix.bits (rng ~root ~experiment ~sweep_point ~trial)
