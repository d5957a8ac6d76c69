(* Every algorithm's one body — its [Renaming.Machine], run through
   [get_name] — against the independent closure transcription in
   [Reference], under the effects scheduler and adversarial schedules:
   the same names, steps, crashes, space, point contention, and the
   same event stream, event for event.  The machine's stream must also
   satisfy the executable specification ([Renaming.Spec]). *)

let checkb = Alcotest.check Alcotest.bool

(* (name, instance maker): for [n] processes, the machine's
   [get_name], the reference closure, and the geometry [Spec] checks
   probes against ([ignore] where the algorithm has no batch layout). *)
let algos =
  [
    ( "rebatching",
      fun n ->
        let r = Renaming.Rebatching.make ~t0:3 ~n () in
        ( (fun env -> Renaming.Rebatching.get_name env r),
          (fun env -> Reference.Rebatching.get_name env r),
          fun spec -> Renaming.Spec.with_rebatching spec r ) );
    ( "adaptive",
      fun _ ->
        let space = Renaming.Object_space.create ~t0:3 () in
        ( (fun env -> Renaming.Adaptive_rebatching.get_name env space),
          (fun env -> Reference.Adaptive_rebatching.get_name env space),
          fun spec -> Renaming.Spec.with_object_space spec space ) );
    ( "fast-adaptive",
      fun _ ->
        let space = Renaming.Object_space.create ~t0:3 () in
        ( (fun env -> Renaming.Fast_adaptive_rebatching.get_name env space),
          (fun env -> Reference.Fast_adaptive_rebatching.get_name env space),
          fun spec -> Renaming.Spec.with_object_space spec space ) );
    ( "uniform",
      fun n ->
        let m = 2 * n and max_steps = 1000 * n in
        ( (fun env -> Baselines.Uniform_probe.get_name env ~m ~max_steps),
          (fun env -> Reference.Uniform_probe.get_name env ~m ~max_steps),
          ignore ) );
    ( "linear-scan",
      fun n ->
        let m = 2 * n in
        ( (fun env -> Baselines.Linear_scan.get_name env ~m),
          (fun env -> Reference.Linear_scan.get_name env ~m),
          ignore ) );
    ( "cyclic-scan",
      fun n ->
        let m = 2 * n in
        ( (fun env -> Baselines.Cyclic_scan.get_name env ~m),
          (fun env -> Reference.Cyclic_scan.get_name env ~m),
          ignore ) );
    ( "doubling",
      fun _ ->
        let space = Renaming.Object_space.create ~t0:3 () in
        ( (fun env -> Baselines.Adaptive_doubling.get_name env space),
          (fun env -> Reference.Adaptive_doubling.get_name env space),
          ignore ) );
  ]

let adversaries =
  [
    ("random", Sim.Adversary.random);
    ("round_robin", Sim.Adversary.round_robin);
    ("layered", Sim.Adversary.layered);
    ("greedy_collision", Sim.Adversary.greedy_collision);
    ("crashes0.25", Sim.Adversary.with_crashes ~fraction:0.25 Sim.Adversary.random);
  ]

(* One run, with its event stream in execution order. *)
let traced ~adversary ~seed ~n algo =
  let events = ref [] in
  let on_event ~pid e = events := (pid, e) :: !events in
  let r = Sim.Runner.run ~adversary ~on_event ~seed ~n ~algo () in
  (r, List.rev !events)

let pp_event (pid, e) = Format.asprintf "pid %d %a" pid Renaming.Events.pp e

(* [None] when the two runs agree on everything; otherwise what
   differs, down to the first diverging event. *)
let compare_runs (r1, ev1) (r2, ev2) =
  let open Sim.Runner in
  let fields =
    [
      ("names", r1.names = r2.names);
      ("steps", r1.steps = r2.steps);
      ("crashed", r1.crashed = r2.crashed);
      ("total_steps", r1.total_steps = r2.total_steps);
      ("max_steps", r1.max_steps = r2.max_steps);
      ("space_used", r1.space_used = r2.space_used);
      ("crash_count", r1.crash_count = r2.crash_count);
      ("point_contention", r1.point_contention = r2.point_contention);
    ]
  in
  let bad = List.filter_map (fun (f, ok) -> if ok then None else Some f) fields in
  let rec first_diff i = function
    | [], [] -> None
    | a :: xs, b :: ys ->
      if a = b then first_diff (i + 1) (xs, ys)
      else Some (Printf.sprintf "event %d: %s vs %s" i (pp_event a) (pp_event b))
    | a :: _, [] -> Some (Printf.sprintf "event %d: %s vs end" i (pp_event a))
    | [], b :: _ -> Some (Printf.sprintf "event %d: end vs %s" i (pp_event b))
  in
  match (bad, first_diff 0 (ev1, ev2)) with
  | [], None -> None
  | _, d ->
    Some
      (String.concat "; "
         ((if bad = [] then [] else [ "fields differ: " ^ String.concat ", " bad ])
         @ Option.to_list d))

let spec_violations attach events =
  let spec = Renaming.Spec.create () in
  attach spec;
  List.iter (fun (pid, e) -> Renaming.Spec.observe spec ~pid e) events;
  Renaming.Spec.violations spec

(* Machine vs reference on one (algorithm, adversary, seed, n); [Error]
   names the first disagreement or Spec violation. *)
let check_case ~algo ~adversary ~seed ~n =
  let aname, make = List.nth algos algo in
  let vname, adv = List.nth adversaries adversary in
  let label = Printf.sprintf "%s/%s seed=%d n=%d" aname vname seed n in
  let machine, _, attach = make n in
  let _, reference, _ = make n in
  let ((_, events) as got) = traced ~adversary:adv ~seed ~n machine in
  let want = traced ~adversary:adv ~seed ~n reference in
  match compare_runs got want with
  | Some d -> Error (label ^ ": machine vs reference: " ^ d)
  | None -> (
    match spec_violations attach events with
    | [] -> Ok ()
    | v :: _ -> Error (label ^ ": spec: " ^ v))

(* Every algorithm under every adversary once, at a fixed seed. *)
let test_all_pairs () =
  List.iteri
    (fun algo _ ->
      List.iteri
        (fun adversary _ ->
          match check_case ~algo ~adversary ~seed:17 ~n:48 with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        adversaries)
    algos

let qcheck_machine_is_reference =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* n = int_range 1 96 in
      let* algo = int_bound (List.length algos - 1) in
      let* adversary = int_bound (List.length adversaries - 1) in
      return (seed, n, algo, adversary))
  in
  let print (seed, n, algo, adversary) =
    Printf.sprintf "seed=%d n=%d algo=%s adversary=%s" seed n
      (fst (List.nth algos algo))
      (fst (List.nth adversaries adversary))
  in
  QCheck.Test.make ~name:"get_name = reference closure (result and events)"
    ~count:200 (QCheck.make ~print gen) (fun (seed, n, algo, adversary) ->
      match check_case ~algo ~adversary ~seed ~n with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* Long-lived churn over the releasing machines: each process acquires
   [rounds] times, releasing between acquisitions, so superseded names
   are reset inside acquisitions and [Name_released] events interleave
   with the probes. *)
let churn ~acquire space rounds (env : Renaming.Env.t) =
  let rec cycle r =
    match acquire env space with
    | None -> None
    | Some u ->
      if r = 1 then Some u
      else begin
        Renaming.Long_lived.Adaptive.release env space u;
        cycle (r - 1)
      end
  in
  cycle rounds

let releasing =
  [
    ( "adaptive",
      Renaming.Long_lived.Adaptive.acquire,
      Reference.Adaptive_rebatching.get_name_releasing );
    ( "fast-adaptive",
      Renaming.Long_lived.Adaptive.acquire_fast,
      Reference.Fast_adaptive_rebatching.get_name_releasing );
  ]

let qcheck_releasing_is_reference =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* n = int_range 1 48 in
      let* algo = int_bound 1 in
      let* adversary = int_bound (List.length adversaries - 1) in
      let* rounds = int_range 2 5 in
      return (seed, n, algo, adversary, rounds))
  in
  let print (seed, n, algo, adversary, rounds) =
    Printf.sprintf "seed=%d n=%d algo=%s adversary=%s rounds=%d" seed n
      (let name, _, _ = List.nth releasing algo in
       name)
      (fst (List.nth adversaries adversary))
      rounds
  in
  QCheck.Test.make ~name:"releasing acquire = reference under churn" ~count:80
    (QCheck.make ~print gen) (fun (seed, n, algo, adversary, rounds) ->
      let _, acquire, reference = List.nth releasing algo in
      let _, adv = List.nth adversaries adversary in
      let run acquire =
        let space = Renaming.Object_space.create ~t0:3 () in
        (space, traced ~adversary:adv ~seed ~n (churn ~acquire space rounds))
      in
      let space, ((_, events) as got) = run acquire in
      let _, want = run reference in
      (match compare_runs got want with
      | Some d -> QCheck.Test.fail_report ("machine vs reference: " ^ d)
      | None -> ());
      (match
         spec_violations (fun s -> Renaming.Spec.with_object_space s space) events
       with
      | [] -> ()
      | v :: _ -> QCheck.Test.fail_report ("spec: " ^ v));
      true)

(* The releasing machines do emit [Name_released] for superseded names
   (not only for the explicit releases between rounds). *)
let test_superseded_names_released () =
  List.iter
    (fun (name, acquire, _) ->
      let space = Renaming.Object_space.create ~t0:3 () in
      let _, events =
        traced ~adversary:Sim.Adversary.random ~seed:5 ~n:64
          (fun env -> acquire env space)
      in
      checkb
        (name ^ ": a superseded name was released")
        true
        (List.exists
           (fun (_, e) ->
             match e with Renaming.Events.Name_released _ -> true | _ -> false)
           events))
    releasing

let suite =
  [
    ( "machines.reference",
      [
        Alcotest.test_case "every algorithm x adversary (seed 17)" `Quick
          test_all_pairs;
        QCheck_alcotest.to_alcotest qcheck_machine_is_reference;
        QCheck_alcotest.to_alcotest qcheck_releasing_is_reference;
        Alcotest.test_case "releasing machines free superseded names" `Quick
          test_superseded_names_released;
      ] );
  ]
