(* The timed microbenchmark kernels behind `repro_cli bench`.

   Each kernel times a hot loop and meters its minor-heap traffic with
   [Gc.minor_words], reporting ns/op and words/op where an "op" is one
   simulated shared-memory step (simulation kernels) or one draw (PRNG
   kernels).  The headline pairs run the same algorithm on the fast and
   effects substrates so the suite records the speedup the
   zero-allocation core actually delivers on this machine.  The
   artifact, its gates and its rendering are [Engine.Kernel_bench]. *)

open Engine.Kernel_bench

(* Wall-clock here is the measurement payload of a benchmark binary and
   never feeds experiment results.  repro-lint: allow wall-clock *)
let now () = Unix.gettimeofday ()

(* [f] executes one run and returns how many ops it performed.  One
   unmeasured warm run settles lazy setup (location-space growth, page
   faults) before the metered window opens. *)
let measure ~name ~n ~runs f =
  ignore (f () : int);
  Gc.full_major ();
  let ops = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to runs do
    ops := !ops + f ()
  done;
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let d = float_of_int (max 1 !ops) in
  {
    name;
    n;
    runs;
    ops = !ops;
    ns_per_op = (t1 -. t0) *. 1e9 /. d;
    words_per_op = (w1 -. w0) /. d;
  }

let scaled scale x = max 1 (int_of_float (float_of_int x *. scale))

(* One algorithm on both substrates, under the same uniformly random
   schedule.  The fast side reuses a preallocated handle (reset + run is
   the steady state the 0 words/op claim is about); the effects side is
   the ordinary one-shot runner, allocations and all, because that per-run
   setup is exactly the cost the fast core exists to avoid. *)
let substrate_pair ~label ~spec ~seed ~n ~fast_runs ~effects_runs =
  let core =
    Sim.Fast_core.create ~algo:(Harness.Substrate.fast_algo spec) ~n ()
  in
  let fseed = ref seed in
  let fast =
    measure ~name:(label ^ "/fast") ~n ~runs:fast_runs (fun () ->
        incr fseed;
        Sim.Fast_core.reset core ~seed:!fseed;
        Sim.Fast_core.run core;
        Sim.Fast_core.total_steps core)
  in
  let eseed = ref seed in
  let effects =
    measure ~name:(label ^ "/effects") ~n ~runs:effects_runs (fun () ->
        incr eseed;
        let r =
          Sim.Runner.run ~seed:!eseed ~n ~algo:(Harness.Substrate.closure spec)
            ()
        in
        r.Sim.Runner.total_steps)
  in
  (fast, effects)

let flat_int_kernel ~seed ~scale =
  let draws = scaled scale 5_000_000 in
  let bank = Prng.Flat.create 1 in
  measure ~name:"prng/flat-int" ~n:draws ~runs:3 (fun () ->
      Prng.Flat.reseed bank ~seed;
      let acc = ref 0 in
      for _ = 1 to draws do
        acc := !acc lxor Prng.Flat.int bank 0 12345
      done;
      draws + (!acc land 0))

let dist_geometric_kernel ~seed ~scale =
  let draws = scaled scale 1_000_000 in
  let rng = Prng.Splitmix.of_int seed in
  measure ~name:"prng/dist-geometric" ~n:draws ~runs:3 (fun () ->
      let acc = ref 0 in
      for _ = 1 to draws do
        acc := !acc + Prng.Dist.geometric_sample rng ~p:0.25
      done;
      draws + (!acc land 0))

let run_suite ~seed ~scale =
  let n_reb = scaled scale 100_000 in
  let reb_fast, reb_effects =
    substrate_pair ~label:"rebatching"
      ~spec:
        (Harness.Substrate.rebatching (Renaming.Rebatching.make ~t0:3 ~n:n_reb ()))
      ~seed ~n:n_reb ~fast_runs:8 ~effects_runs:2
  in
  let n_fa = scaled scale 16_384 in
  let fa_fast, fa_effects =
    substrate_pair ~label:"fast-adaptive"
      ~spec:(Harness.Substrate.fast_adaptive (Renaming.Object_space.create ~t0:3 ()))
      ~seed ~n:n_fa ~fast_runs:8 ~effects_runs:2
  in
  let sp pair fast effects =
    { pair; speedup = effects.ns_per_op /. fast.ns_per_op }
  in
  {
    seed;
    scale;
    kernels =
      [
        reb_fast;
        reb_effects;
        fa_fast;
        fa_effects;
        flat_int_kernel ~seed ~scale;
        dist_geometric_kernel ~seed ~scale;
      ];
    speedups =
      [ sp "rebatching" reb_fast reb_effects;
        sp "fast-adaptive" fa_fast fa_effects ];
  }
