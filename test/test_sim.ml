(* Tests for lib/sim: dynset, location space, scheduler, adversaries,
   runner. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Dynset *)

let test_dynset_basic () =
  let s = Sim.Dynset.create () in
  checkb "empty" true (Sim.Dynset.is_empty s);
  Sim.Dynset.add s 3;
  Sim.Dynset.add s 5;
  Sim.Dynset.add s 3;
  (* duplicate: no-op *)
  checki "size" 2 (Sim.Dynset.size s);
  checkb "mem 3" true (Sim.Dynset.mem s 3);
  checkb "mem 4" false (Sim.Dynset.mem s 4);
  Sim.Dynset.remove s 3;
  checkb "removed" false (Sim.Dynset.mem s 3);
  Sim.Dynset.remove s 42;
  (* absent: no-op *)
  checki "size after removes" 1 (Sim.Dynset.size s)

let test_dynset_any_first () =
  let s = Sim.Dynset.create () in
  let rng = Prng.Splitmix.of_int 1 in
  Alcotest.check_raises "any empty" (Invalid_argument "Dynset.any: empty set")
    (fun () -> ignore (Sim.Dynset.any s rng));
  Alcotest.check_raises "first empty" (Invalid_argument "Dynset.first: empty set")
    (fun () -> ignore (Sim.Dynset.first s));
  for i = 0 to 9 do
    Sim.Dynset.add s (i * 10)
  done;
  for _ = 1 to 100 do
    let v = Sim.Dynset.any s rng in
    checkb "member" true (Sim.Dynset.mem s v)
  done;
  checkb "first member" true (Sim.Dynset.mem s (Sim.Dynset.first s))

let test_dynset_growth () =
  let s = Sim.Dynset.create () in
  for i = 0 to 999 do
    Sim.Dynset.add s i
  done;
  checki "size 1000" 1000 (Sim.Dynset.size s);
  for i = 0 to 999 do
    if i mod 2 = 0 then Sim.Dynset.remove s i
  done;
  checki "half left" 500 (Sim.Dynset.size s);
  checki "list size" 500 (List.length (Sim.Dynset.to_list s))

let test_dynset_negative () =
  let s = Sim.Dynset.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Dynset.add: negative element")
    (fun () -> Sim.Dynset.add s (-1))

let qcheck_dynset_model =
  (* model-based test against a reference Set *)
  QCheck.Test.make ~name:"dynset agrees with a reference set" ~count:200
    QCheck.(list (pair bool (int_range 0 50)))
    (fun ops ->
      let module IS = Set.Make (Int) in
      let s = Sim.Dynset.create () in
      let reference = ref IS.empty in
      List.iter
        (fun (is_add, v) ->
          if is_add then begin
            Sim.Dynset.add s v;
            reference := IS.add v !reference
          end
          else begin
            Sim.Dynset.remove s v;
            reference := IS.remove v !reference
          end)
        ops;
      Sim.Dynset.size s = IS.cardinal !reference
      && IS.for_all (fun v -> Sim.Dynset.mem s v) !reference
      && List.for_all (fun v -> IS.mem v !reference) (Sim.Dynset.to_list s))

(* ------------------------------------------------------------------ *)
(* Location space *)

let test_space_tas_semantics () =
  let sp = Sim.Location_space.create () in
  checkb "first wins" true (Sim.Location_space.tas sp 5);
  checkb "second loses" false (Sim.Location_space.tas sp 5);
  checkb "third loses" false (Sim.Location_space.tas sp 5);
  checkb "other loc wins" true (Sim.Location_space.tas sp 6);
  checki "probes" 4 (Sim.Location_space.probe_count sp);
  checki "wins" 2 (Sim.Location_space.win_count sp);
  checki "hwm" 7 (Sim.Location_space.high_water_mark sp)

let test_space_growth () =
  let sp = Sim.Location_space.create ~capacity:2 () in
  checkb "far location wins" true (Sim.Location_space.tas sp 100_000);
  checkb "is_taken" true (Sim.Location_space.is_taken sp 100_000);
  checkb "not taken" false (Sim.Location_space.is_taken sp 99_999);
  checki "hwm" 100_001 (Sim.Location_space.high_water_mark sp)

let test_space_reset () =
  let sp = Sim.Location_space.create () in
  ignore (Sim.Location_space.tas sp 3);
  Sim.Location_space.reset sp;
  checki "probes" 0 (Sim.Location_space.probe_count sp);
  checkb "free again" true (Sim.Location_space.tas sp 3)

let test_space_negative () =
  let sp = Sim.Location_space.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Location_space.tas: negative location") (fun () ->
      ignore (Sim.Location_space.tas sp (-1)))

let qcheck_one_winner_per_location =
  QCheck.Test.make ~name:"each location won at most once" ~count:100
    QCheck.(list (int_range 0 20))
    (fun locs ->
      let sp = Sim.Location_space.create () in
      let wins = Hashtbl.create 16 in
      List.iter
        (fun loc ->
          if Sim.Location_space.tas sp loc then begin
            if Hashtbl.mem wins loc then
              QCheck.Test.fail_report "double win";
            Hashtbl.replace wins loc ()
          end)
        locs;
      true)

(* Model-based: random operation sequences against a Hashtbl of taken
   locations, on a space created with no dense prefix or with one of
   [model_dense] cells.  Locations come from that prefix, the near tail
   just past it, and 256 far blocks spread up to 2^40 — enough distinct
   blocks to double the sparse table several times.  [Save] keeps a
   snapshot and a copy of the model; [Restore] returns both to it. *)
type space_op =
  | Tas of int
  | Release of int
  | Is_taken of int
  | Clear
  | Reset
  | Preallocate of int
  | Save
  | Restore

let model_dense = 64

let space_op_gen =
  let open QCheck.Gen in
  let loc =
    frequency
      [
        (3, int_range 0 (model_dense - 1));
        (3, int_range model_dense (model_dense + (32 * 64)));
        ( 4,
          map2 (fun i off -> (i * 4_294_967_311) + off) (int_range 0 255)
            (int_range 0 3) );
      ]
  in
  frequency
    [
      (10, map (fun l -> Tas l) loc);
      (4, map (fun l -> Release l) loc);
      (3, map (fun l -> Is_taken l) loc);
      (1, return Clear);
      (1, return Reset);
      (1, map (fun c -> Preallocate c) (int_range 0 (model_dense + (32 * 64))));
      (2, return Save);
      (2, return Restore);
    ]

let space_op_print = function
  | Tas l -> Printf.sprintf "tas %d" l
  | Release l -> Printf.sprintf "release %d" l
  | Is_taken l -> Printf.sprintf "is_taken %d" l
  | Clear -> "clear"
  | Reset -> "reset"
  | Preallocate c -> Printf.sprintf "preallocate %d" c
  | Save -> "save"
  | Restore -> "restore"

type space_model = {
  taken : (int, unit) Hashtbl.t;
  mutable m_probes : int;
  mutable m_hwm : int;
}

let qcheck_space_model =
  let module L = Sim.Location_space in
  QCheck.Test.make ~name:"location space agrees with a reference model"
    ~count:200
    QCheck.(
      make
        ~print:(Print.pair Print.int (Print.list space_op_print))
        Gen.(
          pair (oneofl [ 0; model_dense ])
            (list_size (int_range 0 400) space_op_gen)))
    (fun (capacity, ops) ->
      let sp = L.create ~capacity () in
      let m = { taken = Hashtbl.create 64; m_probes = 0; m_hwm = 0 } in
      let saved = ref None in
      let touched = Hashtbl.create 64 in
      let fail op what =
        QCheck.Test.fail_reportf "after %s: %s" (space_op_print op) what
      in
      let bump loc = m.m_hwm <- max m.m_hwm (loc + 1) in
      let empty () =
        Hashtbl.reset m.taken;
        m.m_probes <- 0;
        m.m_hwm <- 0
      in
      List.iter
        (fun op ->
          (match op with
          | Tas l ->
            Hashtbl.replace touched l ();
            m.m_probes <- m.m_probes + 1;
            bump l;
            let expect = not (Hashtbl.mem m.taken l) in
            Hashtbl.replace m.taken l ();
            if L.tas sp l <> expect then fail op "wrong tas outcome"
          | Release l ->
            Hashtbl.replace touched l ();
            bump l;
            Hashtbl.remove m.taken l;
            L.release sp l
          | Is_taken l ->
            Hashtbl.replace touched l ();
            if L.is_taken sp l <> Hashtbl.mem m.taken l then
              fail op "wrong is_taken"
          | Clear -> L.clear sp; empty ()
          | Reset -> L.reset sp; empty ()
          | Preallocate c -> L.preallocate sp ~capacity:c
          | Save ->
            saved := Some (L.save sp, Hashtbl.copy m.taken, m.m_probes, m.m_hwm)
          | Restore -> (
            match !saved with
            | None -> ()
            | Some (snap, taken, probes, hwm) ->
              L.restore sp snap;
              Hashtbl.reset m.taken;
              Hashtbl.iter (fun l () -> Hashtbl.replace m.taken l ()) taken;
              m.m_probes <- probes;
              m.m_hwm <- hwm));
          if L.probe_count sp <> m.m_probes then fail op "probe count";
          if L.win_count sp <> Hashtbl.length m.taken then fail op "win count";
          if L.high_water_mark sp <> m.m_hwm then fail op "high-water mark")
        ops;
      Hashtbl.iter
        (fun l () ->
          if L.is_taken sp l <> Hashtbl.mem m.taken l then
            QCheck.Test.fail_reportf "final state differs at %d" l)
        touched;
      true)

(* A release or lookup of a never-probed far cell looks, it does not
   insert: the space's storage is unchanged, even after enough distinct
   blocks to grow the sparse table were they inserted. *)
let test_space_far_lookup_allocates_nothing () =
  let sp = Sim.Location_space.create ~capacity:64 () in
  ignore (Sim.Location_space.tas sp (1 lsl 33));
  let before = Obj.reachable_words (Obj.repr sp) in
  for i = 1 to 64 do
    Sim.Location_space.release sp ((i lsl 34) + 5);
    checkb "untouched far cell is free" false
      (Sim.Location_space.is_taken sp ((i lsl 35) + 7))
  done;
  checki "reachable words" before (Obj.reachable_words (Obj.repr sp));
  checki "wins" 1 (Sim.Location_space.win_count sp);
  checki "hwm" ((64 lsl 34) + 6) (Sim.Location_space.high_water_mark sp)

(* ------------------------------------------------------------------ *)
(* Scheduler + runner *)

(* A trivial algorithm: probe locations pid*10, pid*10+1, ... up to 3
   probes (all free, disjoint per pid), then return the first. *)
let disjoint_algo (env : Renaming.Env.t) =
  let base = env.pid * 10 in
  let w1 = env.tas base in
  let w2 = env.tas (base + 1) in
  let w3 = env.tas (base + 2) in
  if w1 && w2 && w3 then Some base else None

let test_scheduler_trivial () =
  let r = Sim.Runner.run ~seed:1 ~n:4 ~algo:disjoint_algo () in
  Array.iteri (fun pid name -> checkb "name" true (name = Some (pid * 10))) r.names;
  Array.iter (fun s -> checki "steps" 3 s) r.steps;
  checki "total" 12 r.total_steps;
  checki "max" 3 r.max_steps

let contending_algo (env : Renaming.Env.t) =
  (* everyone fights for location 0; losers take location pid+1 *)
  if env.tas 0 then Some 0 else if env.tas (env.pid + 1) then Some (env.pid + 1) else None

let test_one_winner_under_all_adversaries () =
  List.iter
    (fun adv ->
      let r = Sim.Runner.run ~adversary:adv ~seed:7 ~n:8 ~algo:contending_algo () in
      let zero_winners =
        Array.fold_left
          (fun acc name -> if name = Some 0 then acc + 1 else acc)
          0 r.names
      in
      checki (Printf.sprintf "%s: one winner of loc 0" adv.Sim.Adversary.name) 1
        zero_winners;
      checkb
        (Printf.sprintf "%s: unique names" adv.Sim.Adversary.name)
        true
        (Sim.Runner.check_unique_names r))
    Sim.Adversary.all_builtin

let test_determinism_same_seed () =
  let algo env = Baselines.Uniform_probe.get_name env ~m:64 ~max_steps:1000 in
  let r1 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  let r2 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  Alcotest.(check (array (option int))) "same names" r1.names r2.names;
  Alcotest.(check (array int)) "same steps" r1.steps r2.steps;
  checki "same total" r1.total_steps r2.total_steps

let test_different_seeds_differ () =
  let algo env = Baselines.Uniform_probe.get_name env ~m:64 ~max_steps:1000 in
  let r1 = Sim.Runner.run ~seed:5 ~n:32 ~algo () in
  let r2 = Sim.Runner.run ~seed:6 ~n:32 ~algo () in
  checkb "names differ somewhere" true (r1.names <> r2.names)

let test_step_limit () =
  (* a process that loops forever on a taken location *)
  let stubborn (env : Renaming.Env.t) =
    let rec go () = if env.tas 0 then Some 0 else go () in
    go ()
  in
  Alcotest.check_raises "limit" Sim.Scheduler.Step_limit_exceeded (fun () ->
      ignore (Sim.Runner.run ~max_total_steps:100 ~seed:1 ~n:2 ~algo:stubborn ()))

let test_sequential_runner () =
  let algo env = Baselines.Linear_scan.get_name env ~m:100 in
  let r = Sim.Runner.run_sequential ~seed:3 ~n:50 ~algo () in
  checkb "unique" true (Sim.Runner.check_unique_names r);
  (* sequential linear scan assigns names exactly 0..49 *)
  checki "max name" 49 (Sim.Runner.max_name r);
  checki "total = sum steps" r.total_steps (Array.fold_left ( + ) 0 r.steps)

let test_sequential_unshuffled_order () =
  let algo env = Baselines.Linear_scan.get_name env ~m:10 in
  let r = Sim.Runner.run_sequential ~shuffled:false ~seed:3 ~n:5 ~algo () in
  (* pid i runs i-th and takes location i *)
  Array.iteri (fun pid name -> checkb "name = pid" true (name = Some pid)) r.names

let test_crash_adversary () =
  let adversary = Sim.Adversary.with_crashes ~fraction:0.4 Sim.Adversary.random in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:64 ())
  in
  let r = Sim.Runner.run ~adversary ~seed:11 ~n:64 ~algo () in
  checkb "some crashes" true (r.crash_count > 0);
  checkb "crash bound respected" true (r.crash_count <= 26);
  checkb "survivors have unique names" true (Sim.Runner.check_unique_names r);
  Array.iteri
    (fun pid crashed -> if crashed then checkb "crashed pid has no name" true (r.names.(pid) = None))
    r.crashed

let test_crash_fraction_zero () =
  let adversary = Sim.Adversary.with_crashes ~fraction:0. Sim.Adversary.random in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:16 ())
  in
  let r = Sim.Runner.run ~adversary ~seed:2 ~n:16 ~algo () in
  checki "no crashes" 0 r.crash_count

let test_crash_invalid_fraction () =
  Alcotest.check_raises "fraction 1"
    (Invalid_argument "Adversary.with_crashes: fraction must be in [0, 1)")
    (fun () -> ignore (Sim.Adversary.with_crashes ~fraction:1. Sim.Adversary.random))

let test_adversary_by_name () =
  List.iter
    (fun name ->
      match Sim.Adversary.by_name name with
      | Some a -> Alcotest.check Alcotest.string "name" name a.Sim.Adversary.name
      | None -> Alcotest.failf "missing adversary %s" name)
    [ "random"; "round-robin"; "layered"; "greedy"; "sequential" ];
  checkb "unknown" true (Sim.Adversary.by_name "nope" = None)

let test_greedy_hurts_uniform () =
  (* The greedy-collision adversary should never make uniform probing
     cheaper than the random scheduler does, and typically makes it
     measurably worse.  Compare total steps over a few seeds. *)
  (* A tight namespace (m = n) makes scheduling order matter. *)
  let algo env = Baselines.Uniform_probe.get_name env ~m:32 ~max_steps:10_000 in
  let total adversary seed =
    (Sim.Runner.run ~adversary ~seed ~n:32 ~algo ()).total_steps
  in
  let sum_random = ref 0 and sum_greedy = ref 0 in
  for seed = 1 to 30 do
    sum_random := !sum_random + total Sim.Adversary.random seed;
    sum_greedy := !sum_greedy + total Sim.Adversary.greedy_collision seed
  done;
  checkb
    (Printf.sprintf "greedy (%d) >= 0.9 * random (%d)" !sum_greedy !sum_random)
    true
    (float_of_int !sum_greedy >= 0.9 *. float_of_int !sum_random)

let test_event_stream_counts_match_steps () =
  let probes = ref 0 in
  let on_event ~pid:_ = function
    | Renaming.Events.Probe _ -> incr probes
    | _ -> ()
  in
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:32 ())
  in
  let r = Sim.Runner.run ~on_event ~seed:21 ~n:32 ~algo () in
  checki "every step is a probe event" r.total_steps !probes

let test_layered_adversary_runs_rebatching () =
  let algo env =
    Renaming.Rebatching.get_name env (Renaming.Rebatching.make ~n:128 ())
  in
  let r =
    Sim.Runner.run ~adversary:Sim.Adversary.layered ~seed:13 ~n:128 ~algo ()
  in
  checkb "unique" true (Sim.Runner.check_unique_names r)

let qcheck_sequential_adversary_equals_sequential_runner =
  (* Two independent implementations of the same schedule: the effect
     scheduler driven by the [sequential] adversary must produce exactly
     the results of the direct sequential runner (unshuffled).  This is a
     strong end-to-end check of the scheduler, the effect handler and the
     step accounting. *)
  QCheck.Test.make ~name:"effect scheduler == sequential runner on solo schedule"
    ~count:30
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let instance = Renaming.Rebatching.make ~t0:3 ~n () in
      let algo env = Renaming.Rebatching.get_name env instance in
      let effectful =
        Sim.Runner.run ~adversary:Sim.Adversary.sequential ~seed ~n ~algo ()
      in
      let direct = Sim.Runner.run_sequential ~shuffled:false ~seed ~n ~algo () in
      effectful.names = direct.names
      && effectful.steps = direct.steps
      && effectful.total_steps = direct.total_steps)

let test_point_contention_tracking () =
  (* All-at-once: everyone is active together at some point. *)
  let algo env = Baselines.Cyclic_scan.get_name env ~m:64 in
  let r = Sim.Runner.run ~seed:31 ~n:16 ~algo () in
  checkb "high contention all-at-once" true (r.point_contention > 1);
  (* Extreme staggering: arrivals far apart => solo executions. *)
  let adversary =
    Sim.Arrivals.staggered ~interval:1000 Sim.Adversary.random
  in
  let r2 = Sim.Runner.run ~adversary ~seed:31 ~n:16 ~algo () in
  checki "solo under extreme staggering" 1 r2.point_contention;
  (* Sequential runner reports 1 by construction. *)
  let r3 = Sim.Runner.run_sequential ~seed:31 ~n:16 ~algo () in
  checki "sequential" 1 r3.point_contention

let test_round_robin_fairness () =
  (* Under round-robin with identical 3-step processes, every process
     executes the same number of steps. *)
  let r =
    Sim.Runner.run ~adversary:Sim.Adversary.round_robin ~seed:1 ~n:6
      ~algo:disjoint_algo ()
  in
  Array.iter (fun s -> checki "equal steps" 3 s) r.steps

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.dynset",
      [
        tc "basic" `Quick test_dynset_basic;
        tc "any/first" `Quick test_dynset_any_first;
        tc "growth" `Quick test_dynset_growth;
        tc "negative" `Quick test_dynset_negative;
        QCheck_alcotest.to_alcotest qcheck_dynset_model;
      ] );
    ( "sim.location_space",
      [
        tc "tas semantics" `Quick test_space_tas_semantics;
        tc "growth" `Quick test_space_growth;
        tc "reset" `Quick test_space_reset;
        tc "negative" `Quick test_space_negative;
        QCheck_alcotest.to_alcotest qcheck_one_winner_per_location;
        QCheck_alcotest.to_alcotest qcheck_space_model;
        tc "far lookup allocates nothing" `Quick
          test_space_far_lookup_allocates_nothing;
      ] );
    ( "sim.scheduler",
      [
        tc "trivial processes" `Quick test_scheduler_trivial;
        tc "one winner under all adversaries" `Quick
          test_one_winner_under_all_adversaries;
        tc "determinism" `Quick test_determinism_same_seed;
        tc "seeds differ" `Quick test_different_seeds_differ;
        tc "step limit" `Quick test_step_limit;
        tc "sequential runner" `Quick test_sequential_runner;
        tc "sequential unshuffled" `Quick test_sequential_unshuffled_order;
        tc "crash adversary" `Quick test_crash_adversary;
        tc "crash fraction zero" `Quick test_crash_fraction_zero;
        tc "crash invalid fraction" `Quick test_crash_invalid_fraction;
        tc "adversary by name" `Quick test_adversary_by_name;
        tc "greedy hurts uniform" `Quick test_greedy_hurts_uniform;
        tc "events match steps" `Quick test_event_stream_counts_match_steps;
        tc "layered runs rebatching" `Quick test_layered_adversary_runs_rebatching;
        tc "point contention tracking" `Quick test_point_contention_tracking;
        tc "round robin fairness" `Quick test_round_robin_fairness;
        QCheck_alcotest.to_alcotest
          qcheck_sequential_adversary_equals_sequential_runner;
      ] );
  ]
