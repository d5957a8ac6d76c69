(* Tests for the chaos layer: plan derivation and record/replay
   determinism, hook composition, crash/pause injection on the real
   multicore substrate, the invariant monitor (including leaked-slot
   accounting for after-win crashes), and the committed broken-invariant
   fixture. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let mk ?(seed = 42) ?(procs = 32) ?(domains = 1) ?(crash_frac = 0.5)
    ?(pause_frac = 0.25) ?name_bound () =
  match Chaos.Algos.find "rebatching" with
  | Error e -> Alcotest.fail e
  | Ok build ->
    let algo, capacity = build ~n:procs ~t0:3 in
    ( Chaos.Fault_plan.make ~seed ~procs ~domains ~algo:"rebatching" ~capacity
        ?name_bound ~crash_frac ~pause_frac (),
      algo )

(* ------------------------------------------------------------------ *)
(* Fault_plan *)

let test_plan_shape () =
  let plan, _ = mk ~procs:40 ~crash_frac:0.5 ~pause_frac:0.25 () in
  checki "armed crashes = floor(frac*procs)" 20
    (List.length plan.Chaos.Fault_plan.crashes);
  checki "armed pauses = floor(frac*procs)" 10
    (List.length plan.Chaos.Fault_plan.pauses);
  let pids = List.map (fun (c : Chaos.Fault_plan.crash) -> c.pid)
      plan.Chaos.Fault_plan.crashes
  in
  checkb "crash pids sorted distinct" true
    (List.sort_uniq compare pids = pids);
  List.iter
    (fun (c : Chaos.Fault_plan.crash) ->
      checkb "crash pid in range" true (c.pid >= 0 && c.pid < 40);
      checkb "crash op in 1..3" true (c.op >= 1 && c.op <= 3))
    plan.Chaos.Fault_plan.crashes;
  List.iter
    (fun (p : Chaos.Fault_plan.pause) ->
      checkb "pause op in 1..4" true (p.op >= 1 && p.op <= 4);
      checkb "pause spins bounded" true (p.spins >= 1 && p.spins <= 512))
    plan.Chaos.Fault_plan.pauses

let test_plan_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Chaos.Fault_plan.make ~seed:1 ~procs:0 ~domains:1 ~algo:"x" ~capacity:1 ());
  expect_invalid (fun () ->
      Chaos.Fault_plan.make ~seed:1 ~procs:1 ~domains:1 ~algo:"x" ~capacity:1
        ~crash_frac:1.5 ());
  expect_invalid (fun () ->
      Chaos.Fault_plan.make ~seed:1 ~procs:1 ~domains:1 ~algo:"x" ~capacity:1
        ~name_bound:0 ())

(* Same (seed, procs, domains, knobs) -> identical plan, identical JSON;
   and the recorded form replays byte-identically through the parser. *)
let qcheck_plan_deterministic =
  QCheck.Test.make ~name:"plan derivation and JSON round-trip deterministic"
    ~count:200
    QCheck.(
      quad (int_range 0 1_000_000_000) (int_range 1 96) (int_range 1 4)
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (seed, procs, domains, (c4, p4)) ->
      let crash_frac = float_of_int c4 /. 4. in
      let pause_frac = float_of_int p4 /. 4. in
      let make () =
        Chaos.Fault_plan.make ~seed ~procs ~domains ~algo:"rebatching"
          ~capacity:(2 * procs) ~crash_frac ~pause_frac ()
      in
      let a = make () and b = make () in
      let ja = Chaos.Fault_plan.to_json a in
      Chaos.Fault_plan.equal a b
      && ja = Chaos.Fault_plan.to_json b
      &&
      match Chaos.Fault_plan.of_json ja with
      | Error _ -> false
      | Ok c -> Chaos.Fault_plan.equal a c && Chaos.Fault_plan.to_json c = ja)

let test_plan_save_load () =
  let plan, _ = mk () in
  let file = Filename.temp_file "chaos_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Chaos.Fault_plan.save ~file plan;
      match Chaos.Fault_plan.load ~file with
      | Error e -> Alcotest.fail e
      | Ok (p, form) ->
        checkb "load inverts save" true (Chaos.Fault_plan.equal plan p);
        checkb "save writes the canonical form" true (form = `Canonical));
  match Chaos.Fault_plan.of_json "{\"kind\":\"other\"}" with
  | Ok _ -> Alcotest.fail "wrong kind accepted"
  | Error _ -> ()

(* Plan derivation must not perturb the per-process coin streams: the
   plan draws from child (-1) of the root, the runner hands child pid>=0
   to each process. *)
let test_plan_stream_disjoint () =
  let root = Prng.Splitmix.of_int 42 in
  let p0 = Prng.Splitmix.split_at root 0 in
  let plan_rng = Prng.Splitmix.split_at root (-1) in
  checkb "child 0 and child -1 differ" true
    (Prng.Splitmix.int p0 1_000_000 <> Prng.Splitmix.int plan_rng 1_000_000)

(* ------------------------------------------------------------------ *)
(* Hook composition *)

let test_compose_hooks_order () =
  let trace = ref [] in
  let mark s = trace := s :: !trace in
  let layer name =
    {
      Shm.Domain_runner.null_hooks with
      tas =
        (fun ~domain:_ ~pid:_ ~loc:_ f ->
          mark (name ^ "-enter");
          let r = f () in
          mark (name ^ "-exit");
          r);
    }
  in
  let composed =
    Shm.Domain_runner.compose_hooks (layer "outer") (layer "inner")
  in
  let won =
    composed.Shm.Domain_runner.tas ~domain:0 ~pid:0 ~loc:0 (fun () ->
        mark "op";
        true)
  in
  checkb "thunk result passes through" true won;
  Alcotest.(check (list string))
    "outer brackets inner brackets op"
    [ "outer-enter"; "inner-enter"; "op"; "inner-exit"; "outer-exit" ]
    (List.rev !trace)

let test_compose_outer_crash_skips_inner () =
  let inner_saw = ref 0 in
  let outer =
    {
      Shm.Domain_runner.null_hooks with
      tas = (fun ~domain:_ ~pid:_ ~loc:_ _ -> raise Chaos.Chaos_runner.Crashed);
    }
  in
  let inner =
    {
      Shm.Domain_runner.null_hooks with
      tas =
        (fun ~domain:_ ~pid:_ ~loc:_ f ->
          incr inner_saw;
          f ());
    }
  in
  let composed = Shm.Domain_runner.compose_hooks outer inner in
  (match
     composed.Shm.Domain_runner.tas ~domain:0 ~pid:0 ~loc:0 (fun () -> true)
   with
  | exception Chaos.Chaos_runner.Crashed -> ()
  | _ -> Alcotest.fail "outer crash did not propagate");
  checki "a crash before the op never reaches the inner monitor" 0 !inner_saw

(* ------------------------------------------------------------------ *)
(* Chaos_runner *)

let run_plan_exn ?certify plan =
  match Chaos.Chaos_runner.run_plan ?certify plan with
  | Ok o -> o
  | Error e -> Alcotest.fail e

(* At domains=1 execution is sequential: the fired faults and the whole
   verdict artifact are byte-identical across runs. *)
let test_fired_deterministic_domains1 () =
  let plan, _ = mk ~seed:7 ~procs:48 ~domains:1 () in
  let a = run_plan_exn plan and b = run_plan_exn plan in
  checks "verdict JSON byte-identical at domains=1"
    (Chaos.Chaos_runner.verdict_to_json a.Chaos.Chaos_runner.verdict)
    (Chaos.Chaos_runner.verdict_to_json b.Chaos.Chaos_runner.verdict);
  checkb "invariants hold" true
    (Chaos.Chaos_runner.ok a.Chaos.Chaos_runner.verdict)

let test_invariants_multicore () =
  List.iter
    (fun crash_frac ->
      for seed = 0 to 3 do
        let plan, algo = mk ~seed ~procs:32 ~domains:3 ~crash_frac () in
        let o = Chaos.Chaos_runner.run ~plan ~algo () in
        let v = o.Chaos.Chaos_runner.verdict in
        if not (Chaos.Chaos_runner.ok v) then
          Alcotest.failf "seed=%d frac=%g violations: %s" seed crash_frac
            (String.concat ", " v.Chaos.Chaos_runner.violations)
      done)
    [ 0.1; 0.5; 0.9 ]

(* The all-but-one edge: only survivor progress is non-vacuous. *)
let test_all_but_one_crashed () =
  let procs = 16 in
  let crash_frac = float_of_int (procs - 1) /. float_of_int procs in
  let plan, algo = mk ~procs ~domains:2 ~crash_frac () in
  checki "armed = procs-1" (procs - 1)
    (List.length plan.Chaos.Fault_plan.crashes);
  let o = Chaos.Chaos_runner.run ~plan ~algo () in
  let v = o.Chaos.Chaos_runner.verdict in
  checkb "invariants hold at (n-1)/n" true (Chaos.Chaos_runner.ok v);
  checkb "at least one survivor" true (v.Chaos.Chaos_runner.survivors >= 1)

(* Every leaked slot is accounted to a fired after-win crash, and an
   after-win crash really leaks: the slot is taken, no name records. *)
let test_after_win_leak_accounting () =
  let saw_leak = ref false in
  for seed = 0 to 7 do
    let plan, _ = mk ~seed ~procs:32 ~domains:1 ~crash_frac:1.0 () in
    let o = run_plan_exn plan in
    let v = o.Chaos.Chaos_runner.verdict in
    checkb "invariants hold (incl. leak accounting)" true
      (Chaos.Chaos_runner.ok v);
    let after_wins =
      List.length
        (List.filter
           (fun (f : Chaos.Chaos_runner.fired) ->
             f.point = Chaos.Fault_plan.After_win)
           v.Chaos.Chaos_runner.fired)
    in
    checki "leaked = fired after-win crashes" after_wins
      v.Chaos.Chaos_runner.leaked;
    if after_wins > 0 then saw_leak := true
  done;
  checkb "sweep actually exercised an after-win leak" true !saw_leak

(* Crashed processes record no name; survivors all do. *)
let test_crash_semantics () =
  let plan, _ = mk ~seed:3 ~procs:24 ~domains:1 ~crash_frac:0.5 () in
  let o = run_plan_exn plan in
  let v = o.Chaos.Chaos_runner.verdict in
  let names = o.Chaos.Chaos_runner.result.Shm.Domain_runner.names in
  List.iter
    (fun (f : Chaos.Chaos_runner.fired) ->
      checkb "crashed pid has no name" true (names.(f.pid) = None))
    v.Chaos.Chaos_runner.fired;
  checki "survivors + crashed = procs" 24
    (v.Chaos.Chaos_runner.survivors + List.length v.Chaos.Chaos_runner.fired)

(* Chaos injection composes with happens-before certification: one
   execution, simultaneously fault-injected and certified race-free. *)
let test_certify_composed () =
  let plan, _ = mk ~seed:5 ~procs:24 ~domains:3 ~crash_frac:0.5 () in
  let o = run_plan_exn ~certify:true plan in
  (match o.Chaos.Chaos_runner.races with
  | None -> Alcotest.fail "certify did not attach the monitor"
  | Some [] -> ()
  | Some races ->
    Alcotest.failf "%d race(s) under chaos" (List.length races));
  checkb "invariants hold under certification" true
    (Chaos.Chaos_runner.ok o.Chaos.Chaos_runner.verdict)

let test_run_plan_capacity_mismatch () =
  let plan, _ = mk () in
  let forged = { plan with Chaos.Fault_plan.capacity = 7 } in
  match Chaos.Chaos_runner.run_plan forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "capacity mismatch accepted"

(* The committed broken-invariant fixture: capacity is fine, but the
   recorded name_bound is deliberately too small — replay must convict
   it with exactly the namespace-bound violation. *)
let test_broken_bound_fixture () =
  match Chaos.Fault_plan.load ~file:"fixtures/chaos_broken_bound.json" with
  | Error e -> Alcotest.fail e
  | Ok (plan, _) ->
    let o = run_plan_exn plan in
    let v = o.Chaos.Chaos_runner.verdict in
    checkb "fixture violates" false (Chaos.Chaos_runner.ok v);
    Alcotest.(check (list string))
      "exactly the namespace-bound violation" [ "namespace-bound" ]
      v.Chaos.Chaos_runner.violations

(* A recorded verdict reads back through doctor's audit: its seed, a
   clean outcome, its plan found, and no problem. *)
let test_verdict_summary_roundtrip () =
  let plan, _ = mk ~seed:9 () in
  let o = run_plan_exn plan in
  let dir = Filename.temp_file "chaos_verdict" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Chaos.Chaos_runner.record ~dir o;
  let lines = Chaos.Chaos_runner.audit_dir dir in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  checkb "summary seed and ok" true
    (List.mem (`Info "chaos_verdict_9.json: verdict seed=9 ok") lines);
  checki "no note or problem" 0
    (List.length (List.filter (function `Info _ -> false | _ -> true) lines))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "plan shape" `Quick test_plan_shape;
        Alcotest.test_case "plan validation" `Quick test_plan_validation;
        QCheck_alcotest.to_alcotest qcheck_plan_deterministic;
        Alcotest.test_case "plan save/load" `Quick test_plan_save_load;
        Alcotest.test_case "plan stream disjoint" `Quick
          test_plan_stream_disjoint;
        Alcotest.test_case "compose_hooks order" `Quick
          test_compose_hooks_order;
        Alcotest.test_case "compose outer crash skips inner" `Quick
          test_compose_outer_crash_skips_inner;
        Alcotest.test_case "fired deterministic at domains=1" `Quick
          test_fired_deterministic_domains1;
        Alcotest.test_case "invariants across crash fractions" `Slow
          test_invariants_multicore;
        Alcotest.test_case "all-but-one crashed edge" `Quick
          test_all_but_one_crashed;
        Alcotest.test_case "after-win leak accounting" `Quick
          test_after_win_leak_accounting;
        Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
        Alcotest.test_case "certify composes with chaos" `Slow
          test_certify_composed;
        Alcotest.test_case "run_plan capacity mismatch" `Quick
          test_run_plan_capacity_mismatch;
        Alcotest.test_case "broken-bound fixture convicts" `Quick
          test_broken_bound_fixture;
        Alcotest.test_case "verdict summary round-trip" `Quick
          test_verdict_summary_roundtrip;
      ] );
  ]
