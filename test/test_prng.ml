(* Tests for lib/prng: SplitMix64, shuffling, distributions. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let float_close ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then
    Alcotest.failf "%s: %.12g <> %.12g (eps %.1g)" msg a b eps

(* ------------------------------------------------------------------ *)
(* Splitmix *)

let test_determinism () =
  let a = Prng.Splitmix.of_int 42 and b = Prng.Splitmix.of_int 42 in
  for i = 1 to 100 do
    check Alcotest.int64
      (Printf.sprintf "draw %d" i)
      (Prng.Splitmix.next_int64 a) (Prng.Splitmix.next_int64 b)
  done

let test_seeds_differ () =
  let a = Prng.Splitmix.of_int 1 and b = Prng.Splitmix.of_int 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.Splitmix.next_int64 a <> Prng.Splitmix.next_int64 b then
      differs := true
  done;
  checkb "streams differ" true !differs

let test_copy_independent () =
  let a = Prng.Splitmix.of_int 7 in
  let _ = Prng.Splitmix.next_int64 a in
  let b = Prng.Splitmix.copy a in
  let xa = Prng.Splitmix.next_int64 a in
  (* advancing [a] further must not affect [b] *)
  let _ = Prng.Splitmix.next_int64 a in
  let xb = Prng.Splitmix.next_int64 b in
  check Alcotest.int64 "copy replays the stream" xa xb

let test_split_at_pure () =
  let a = Prng.Splitmix.of_int 9 in
  let c1 = Prng.Splitmix.split_at a 5 in
  let c2 = Prng.Splitmix.split_at a 5 in
  check Alcotest.int64 "same child stream" (Prng.Splitmix.next_int64 c1)
    (Prng.Splitmix.next_int64 c2);
  (* and the parent was not advanced *)
  let b = Prng.Splitmix.of_int 9 in
  check Alcotest.int64 "parent unchanged" (Prng.Splitmix.next_int64 a)
    (Prng.Splitmix.next_int64 b)

let test_split_children_differ () =
  let a = Prng.Splitmix.of_int 11 in
  let c1 = Prng.Splitmix.split_at a 0 and c2 = Prng.Splitmix.split_at a 1 in
  checkb "children differ" false
    (Prng.Splitmix.next_int64 c1 = Prng.Splitmix.next_int64 c2)

let test_split_advances () =
  let a = Prng.Splitmix.of_int 13 in
  let b = Prng.Splitmix.copy a in
  let _child = Prng.Splitmix.split a in
  checkb "split advances parent" false
    (Prng.Splitmix.next_int64 a = Prng.Splitmix.next_int64 b)

let test_int_bounds () =
  let rng = Prng.Splitmix.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Prng.Splitmix.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_int_power_of_two () =
  let rng = Prng.Splitmix.of_int 4 in
  for _ = 1 to 10_000 do
    let v = Prng.Splitmix.int rng 64 in
    if v < 0 || v >= 64 then Alcotest.failf "out of range: %d" v
  done

let test_int_invalid () =
  let rng = Prng.Splitmix.of_int 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Prng.Splitmix.int rng 0))

let test_int_one () =
  let rng = Prng.Splitmix.of_int 6 in
  for _ = 1 to 100 do
    checki "bound 1 gives 0" 0 (Prng.Splitmix.int rng 1)
  done

(* The rejection loop is a top-level function: a draw with a bound that
   is not a power of two allocates only the boxed state (3 words). *)
let test_int_words_per_draw () =
  let rng = Prng.Splitmix.of_int 9 in
  let draws = 10_000 in
  ignore (Prng.Splitmix.int rng 3);
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Prng.Splitmix.int rng 3))
  done;
  let per_draw = (Gc.minor_words () -. w0) /. float_of_int draws in
  if per_draw > 3. then
    Alcotest.failf "Splitmix.int at bound 3: %.2f words per draw (max 3)"
      per_draw

(* Same state, same bound: the boxed generator and the flat bank draw
   the same values, the rejected ones included. *)
let test_int_matches_flat () =
  let rng = Prng.Splitmix.of_int 10 in
  let bank = Prng.Flat.create 1 in
  Prng.Flat.set_state bank 0 (Prng.Splitmix.state rng);
  List.iter
    (fun bound ->
      for i = 1 to 2_000 do
        let a = Prng.Splitmix.int rng bound and b = Prng.Flat.int bank 0 bound in
        if a <> b then
          Alcotest.failf "bound %d draw %d: splitmix %d <> flat %d" bound i a b
      done)
    [ 3; 7; 64; 1; 1000; (1 lsl 61) + 1 ]

let test_int_mean () =
  let rng = Prng.Splitmix.of_int 8 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Prng.Splitmix.int rng 100
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean of Unif{0..99} is 49.5, sd of the mean ~ 0.13 *)
  if Float.abs (mean -. 49.5) > 1.0 then
    Alcotest.failf "uniform mean suspicious: %f" mean

let test_int_in () =
  let rng = Prng.Splitmix.of_int 10 in
  for _ = 1 to 1000 do
    let v = Prng.Splitmix.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of range: %d" v
  done;
  Alcotest.check_raises "empty range" (Invalid_argument "Splitmix.int_in: empty range")
    (fun () -> ignore (Prng.Splitmix.int_in rng 3 2))

let test_float_range () =
  let rng = Prng.Splitmix.of_int 12 in
  for _ = 1 to 10_000 do
    let v = Prng.Splitmix.float rng in
    if v < 0. || v >= 1. then Alcotest.failf "float out of range: %f" v
  done

let test_bool_balanced () =
  let rng = Prng.Splitmix.of_int 14 in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.Splitmix.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  if Float.abs (frac -. 0.5) > 0.02 then
    Alcotest.failf "coin bias suspicious: %f" frac

let test_bernoulli_edges () =
  let rng = Prng.Splitmix.of_int 16 in
  for _ = 1 to 100 do
    checkb "p=0" false (Prng.Splitmix.bernoulli rng 0.);
    checkb "p=1" true (Prng.Splitmix.bernoulli rng 1.);
    checkb "p<0" false (Prng.Splitmix.bernoulli rng (-0.5));
    checkb "p>1" true (Prng.Splitmix.bernoulli rng 1.5)
  done

(* ------------------------------------------------------------------ *)
(* Shuffle *)

let test_permutation_is_permutation () =
  let rng = Prng.Splitmix.of_int 20 in
  let p = Prng.Shuffle.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..99"
    (Array.init 100 (fun i -> i))
    sorted

let test_shuffle_preserves_elements () =
  let rng = Prng.Splitmix.of_int 21 in
  let a = Array.init 50 (fun i -> i * i) in
  let b = Array.copy a in
  Prng.Shuffle.shuffle_in_place rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_shuffle_empty_and_single () =
  let rng = Prng.Splitmix.of_int 22 in
  let empty = [||] in
  Prng.Shuffle.shuffle_in_place rng empty;
  Alcotest.(check (array int)) "empty ok" [||] empty;
  let one = [| 42 |] in
  Prng.Shuffle.shuffle_in_place rng one;
  Alcotest.(check (array int)) "singleton ok" [| 42 |] one

let test_shuffle_not_identity () =
  (* Over 200 elements, a uniformly random permutation is the identity
     with probability 1/200!; any fixed seed giving identity means a
     bug. *)
  let rng = Prng.Splitmix.of_int 23 in
  let a = Array.init 200 (fun i -> i) in
  Prng.Shuffle.shuffle_in_place rng a;
  checkb "shuffled" false (a = Array.init 200 (fun i -> i))

let test_sample_without_replacement () =
  let rng = Prng.Splitmix.of_int 24 in
  let s = Prng.Shuffle.sample_without_replacement rng 100 30 in
  checki "size" 30 (Array.length s);
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if v < 0 || v >= 100 then Alcotest.failf "out of range: %d" v;
      if Hashtbl.mem seen v then Alcotest.failf "duplicate: %d" v;
      Hashtbl.replace seen v ())
    s

let test_sample_edge_cases () =
  let rng = Prng.Splitmix.of_int 25 in
  checki "k=0" 0 (Array.length (Prng.Shuffle.sample_without_replacement rng 10 0));
  let all = Prng.Shuffle.sample_without_replacement rng 10 10 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k=n is a permutation"
    (Array.init 10 (fun i -> i))
    sorted;
  Alcotest.check_raises "k>n"
    (Invalid_argument "Shuffle.sample_without_replacement: need 0 <= k <= n")
    (fun () -> ignore (Prng.Shuffle.sample_without_replacement rng 5 6))

let test_choose () =
  let rng = Prng.Splitmix.of_int 26 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    let v = Prng.Shuffle.choose rng a in
    checkb "member" true (Array.exists (fun x -> x = v) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Shuffle.choose: empty array")
    (fun () -> ignore (Prng.Shuffle.choose rng [||]))

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_log_factorial_small () =
  float_close "0!" 0. (Prng.Dist.log_factorial 0);
  float_close "1!" 0. (Prng.Dist.log_factorial 1);
  float_close "5!" (log 120.) (Prng.Dist.log_factorial 5);
  float_close ~eps:1e-8 "10!" (log 3628800.) (Prng.Dist.log_factorial 10)

let test_log_factorial_stirling () =
  (* The Stirling branch must agree with the recurrence
     ln (n!) = ln n + ln ((n-1)!) across the table boundary. *)
  let lf = Prng.Dist.log_factorial in
  for n = 256 to 300 do
    float_close ~eps:1e-6
      (Printf.sprintf "recurrence at %d" n)
      (lf n)
      (lf (n - 1) +. log (float_of_int n))
  done

let test_log_factorial_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.log_factorial: negative argument") (fun () ->
      ignore (Prng.Dist.log_factorial (-1)))

let test_poisson_pmf_sums_to_one () =
  List.iter
    (fun lambda ->
      let sum = ref 0. in
      for k = 0 to 200 do
        sum := !sum +. Prng.Dist.poisson_pmf ~lambda k
      done;
      float_close ~eps:1e-6 (Printf.sprintf "sum for lambda=%f" lambda) 1. !sum)
    [ 0.1; 1.0; 4.5; 20.0 ]

let test_poisson_pmf_edges () =
  float_close "pmf(-1)" 0. (Prng.Dist.poisson_pmf ~lambda:3. (-1));
  float_close "lambda=0, k=0" 1. (Prng.Dist.poisson_pmf ~lambda:0. 0);
  float_close "lambda=0, k=1" 0. (Prng.Dist.poisson_pmf ~lambda:0. 1);
  float_close ~eps:1e-12 "pmf(0) = e^-3" (exp (-3.))
    (Prng.Dist.poisson_pmf ~lambda:3. 0)

let test_poisson_cdf_monotone () =
  let lambda = 5.0 in
  let prev = ref 0. in
  for n = 0 to 50 do
    let c = Prng.Dist.poisson_cdf ~lambda n in
    if c < !prev -. 1e-12 then Alcotest.failf "cdf decreasing at %d" n;
    prev := c
  done;
  float_close ~eps:1e-9 "cdf tail" 1. (Prng.Dist.poisson_cdf ~lambda 200)

let test_poisson_cdf_matches_pmf () =
  let lambda = 2.5 in
  let acc = ref 0. in
  for n = 0 to 30 do
    acc := !acc +. Prng.Dist.poisson_pmf ~lambda n;
    float_close ~eps:1e-9
      (Printf.sprintf "cdf(%d)" n)
      !acc
      (Prng.Dist.poisson_cdf ~lambda n)
  done

let test_poisson_cdf_large_lambda () =
  (* Exercise the log-space fallback: e^-800 underflows. *)
  let lambda = 800. in
  let c = Prng.Dist.poisson_cdf ~lambda 800 in
  (* median of Poisson is ~ lambda, so CDF at the mean is close to 1/2 *)
  if c < 0.4 || c > 0.6 then Alcotest.failf "cdf at mean: %f" c

let test_poisson_quantile_inverse () =
  let lambda = 7.0 in
  List.iter
    (fun u ->
      let k = Prng.Dist.poisson_quantile ~lambda u in
      let at = Prng.Dist.poisson_cdf ~lambda k in
      let below = Prng.Dist.poisson_cdf ~lambda (k - 1) in
      if at < u then Alcotest.failf "cdf(q(u)) < u for u=%f" u;
      if k > 0 && below >= u then Alcotest.failf "quantile not minimal for u=%f" u)
    [ 0.0; 0.01; 0.25; 0.5; 0.75; 0.99; 0.9999 ]

let test_poisson_quantile_invalid () =
  Alcotest.check_raises "u=1" (Invalid_argument "Dist.poisson_quantile: u not in [0,1)")
    (fun () -> ignore (Prng.Dist.poisson_quantile ~lambda:1. 1.))

let test_poisson_sample_moments () =
  let rng = Prng.Splitmix.of_int 30 in
  List.iter
    (fun lambda ->
      let n = 20_000 in
      let acc = Stats.Summary.acc_create () in
      for _ = 1 to n do
        Stats.Summary.acc_add acc
          (float_of_int (Prng.Dist.poisson_sample rng ~lambda))
      done;
      let mean = Stats.Summary.acc_mean acc in
      let var = Stats.Summary.acc_variance acc in
      let tol = 5. *. sqrt (lambda /. float_of_int n) in
      if Float.abs (mean -. lambda) > tol then
        Alcotest.failf "mean for lambda=%f: %f" lambda mean;
      (* variance tolerance is looser *)
      if Float.abs (var -. lambda) > 10. *. tol *. sqrt lambda +. 0.1 then
        Alcotest.failf "variance for lambda=%f: %f" lambda var)
    [ 0.5; 3.0; 100.0 ]

let test_poisson_sample_zero () =
  let rng = Prng.Splitmix.of_int 31 in
  for _ = 1 to 50 do
    checki "lambda=0" 0 (Prng.Dist.poisson_sample rng ~lambda:0.)
  done

let test_binomial_moments () =
  let rng = Prng.Splitmix.of_int 32 in
  let n_samples = 10_000 in
  let acc = Stats.Summary.acc_create () in
  for _ = 1 to n_samples do
    Stats.Summary.acc_add acc
      (float_of_int (Prng.Dist.binomial_sample rng ~n:40 ~p:0.3))
  done;
  let mean = Stats.Summary.acc_mean acc in
  if Float.abs (mean -. 12.) > 0.3 then Alcotest.failf "binomial mean: %f" mean

let test_geometric () =
  let rng = Prng.Splitmix.of_int 33 in
  for _ = 1 to 50 do
    checki "p=1 gives 0" 0 (Prng.Dist.geometric_sample rng ~p:1.)
  done;
  let acc = Stats.Summary.acc_create () in
  for _ = 1 to 20_000 do
    Stats.Summary.acc_add acc
      (float_of_int (Prng.Dist.geometric_sample rng ~p:0.25))
  done;
  (* mean is (1-p)/p = 3 *)
  let mean = Stats.Summary.acc_mean acc in
  if Float.abs (mean -. 3.) > 0.25 then Alcotest.failf "geometric mean: %f" mean;
  Alcotest.check_raises "p=0" (Invalid_argument "Dist.geometric_sample: p not in (0,1]")
    (fun () -> ignore (Prng.Dist.geometric_sample rng ~p:0.))

let test_exponential () =
  let rng = Prng.Splitmix.of_int 34 in
  let acc = Stats.Summary.acc_create () in
  for _ = 1 to 20_000 do
    Stats.Summary.acc_add acc (Prng.Dist.exponential_sample rng ~rate:2.)
  done;
  let mean = Stats.Summary.acc_mean acc in
  if Float.abs (mean -. 0.5) > 0.05 then Alcotest.failf "exponential mean: %f" mean;
  Alcotest.check_raises "rate=0"
    (Invalid_argument "Dist.exponential_sample: rate must be positive") (fun () ->
      ignore (Prng.Dist.exponential_sample rng ~rate:0.))

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let qcheck_int_range =
  QCheck.Test.make ~name:"splitmix int is always in range" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.Splitmix.of_int seed in
      let v = Prng.Splitmix.int rng bound in
      v >= 0 && v < bound)

let qcheck_permutation =
  QCheck.Test.make ~name:"permutation is a bijection" ~count:200
    QCheck.(pair small_int (int_range 0 200))
    (fun (seed, n) ->
      let rng = Prng.Splitmix.of_int seed in
      let p = Prng.Shuffle.permutation rng n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let qcheck_quantile_inverse =
  QCheck.Test.make ~name:"poisson quantile inverts cdf" ~count:300
    QCheck.(pair (float_range 0.01 50.) (float_range 0. 0.9999))
    (fun (lambda, u) ->
      let k = Prng.Dist.poisson_quantile ~lambda u in
      Prng.Dist.poisson_cdf ~lambda k >= u
      && (k = 0 || Prng.Dist.poisson_cdf ~lambda (k - 1) < u))

let qcheck_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:200
    QCheck.(triple small_int (int_range 1 100) (int_range 0 100))
    (fun (seed, n, k0) ->
      let k = min k0 n in
      let rng = Prng.Splitmix.of_int seed in
      let s = Prng.Shuffle.sample_without_replacement rng n k in
      let tbl = Hashtbl.create 16 in
      Array.for_all
        (fun v ->
          let fresh = not (Hashtbl.mem tbl v) in
          Hashtbl.replace tbl v ();
          fresh && v >= 0 && v < n)
        s)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "prng.splitmix",
      [
        tc "determinism" `Quick test_determinism;
        tc "seeds differ" `Quick test_seeds_differ;
        tc "copy independent" `Quick test_copy_independent;
        tc "split_at pure" `Quick test_split_at_pure;
        tc "split children differ" `Quick test_split_children_differ;
        tc "split advances" `Quick test_split_advances;
        tc "int bounds" `Quick test_int_bounds;
        tc "int power of two" `Quick test_int_power_of_two;
        tc "int invalid" `Quick test_int_invalid;
        tc "int bound one" `Quick test_int_one;
        tc "int mean" `Quick test_int_mean;
        tc "int words per draw" `Quick test_int_words_per_draw;
        tc "int matches flat" `Quick test_int_matches_flat;
        tc "int_in" `Quick test_int_in;
        tc "float range" `Quick test_float_range;
        tc "bool balanced" `Quick test_bool_balanced;
        tc "bernoulli edges" `Quick test_bernoulli_edges;
        QCheck_alcotest.to_alcotest qcheck_int_range;
      ] );
    ( "prng.shuffle",
      [
        tc "permutation is permutation" `Quick test_permutation_is_permutation;
        tc "shuffle preserves elements" `Quick test_shuffle_preserves_elements;
        tc "empty and singleton" `Quick test_shuffle_empty_and_single;
        tc "not identity" `Quick test_shuffle_not_identity;
        tc "sample without replacement" `Quick test_sample_without_replacement;
        tc "sample edge cases" `Quick test_sample_edge_cases;
        tc "choose" `Quick test_choose;
        QCheck_alcotest.to_alcotest qcheck_permutation;
        QCheck_alcotest.to_alcotest qcheck_sample_distinct;
      ] );
    ( "prng.dist",
      [
        tc "log_factorial small" `Quick test_log_factorial_small;
        tc "log_factorial stirling" `Quick test_log_factorial_stirling;
        tc "log_factorial negative" `Quick test_log_factorial_negative;
        tc "poisson pmf sums to 1" `Quick test_poisson_pmf_sums_to_one;
        tc "poisson pmf edges" `Quick test_poisson_pmf_edges;
        tc "poisson cdf monotone" `Quick test_poisson_cdf_monotone;
        tc "poisson cdf matches pmf" `Quick test_poisson_cdf_matches_pmf;
        tc "poisson cdf large lambda" `Quick test_poisson_cdf_large_lambda;
        tc "poisson quantile inverse" `Quick test_poisson_quantile_inverse;
        tc "poisson quantile invalid" `Quick test_poisson_quantile_invalid;
        tc "poisson sample moments" `Slow test_poisson_sample_moments;
        tc "poisson sample zero" `Quick test_poisson_sample_zero;
        tc "binomial moments" `Quick test_binomial_moments;
        tc "geometric" `Quick test_geometric;
        tc "exponential" `Quick test_exponential;
        QCheck_alcotest.to_alcotest qcheck_quantile_inverse;
      ] );
  ]
