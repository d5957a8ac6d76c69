(* Tests for lib/engine: seed tree, pool, JSONL sink round-trip,
   parallel/serial agreement, and checkpoint/resume. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let temp_dir () = Filename.temp_dir "engine_test" ""

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* A small experiment with a jobs view; t9 is the cheapest ported one. *)
let t9 =
  match Harness.Registry.find "t9" with
  | Some e -> e
  | None -> Alcotest.fail "t9 missing from registry"

let ctx = Harness.Experiment.default_ctx ~seed:7 ~trials:3 ~scale:0.02 ()

(* ------------------------------------------------------------------ *)
(* Seed_tree *)

let test_seed_tree_stable () =
  let d () =
    Engine.Seed_tree.derive ~root:1 ~experiment:"t1" ~sweep_point:2 ~trial:3
  in
  checki "same coordinates, same seed" (d ()) (d ());
  checkb "seed is non-negative" true (d () >= 0)

let test_seed_tree_distinct () =
  let base =
    Engine.Seed_tree.derive ~root:1 ~experiment:"t1" ~sweep_point:0 ~trial:0
  in
  let variants =
    [
      Engine.Seed_tree.derive ~root:2 ~experiment:"t1" ~sweep_point:0 ~trial:0;
      Engine.Seed_tree.derive ~root:1 ~experiment:"t2" ~sweep_point:0 ~trial:0;
      Engine.Seed_tree.derive ~root:1 ~experiment:"t1" ~sweep_point:1 ~trial:0;
      Engine.Seed_tree.derive ~root:1 ~experiment:"t1" ~sweep_point:0 ~trial:1;
      (* "t1" vs "t12": prefix-related ids must not collide *)
      Engine.Seed_tree.derive ~root:1 ~experiment:"t12" ~sweep_point:0 ~trial:0;
    ]
  in
  List.iteri
    (fun i v ->
      checkb (Printf.sprintf "variant %d differs from base" i) true (v <> base))
    variants

let test_seed_tree_order_independent () =
  (* Deriving for (p, t) must not depend on prior derivations. *)
  let a =
    Engine.Seed_tree.derive ~root:9 ~experiment:"x" ~sweep_point:5 ~trial:5
  in
  let _ =
    Engine.Seed_tree.derive ~root:9 ~experiment:"x" ~sweep_point:0 ~trial:0
  in
  let b =
    Engine.Seed_tree.derive ~root:9 ~experiment:"x" ~sweep_point:5 ~trial:5
  in
  checki "interleaved derivations agree" a b

(* ------------------------------------------------------------------ *)
(* Pool *)

(* Order-preserving map on the pool's one execution mode. *)
let pool_map ~workers f tasks =
  let results = Array.make (Array.length tasks) None in
  let outcome =
    Engine.Pool.run_guarded ~workers
      ~f:(fun ~worker:_ _ task -> f task)
      ~consume:(fun i r -> results.(i) <- Some r)
      tasks
  in
  checkb "every task settled" true (outcome = Engine.Pool.Completed);
  Array.map Option.get results

let test_pool_map_matches_serial () =
  let tasks = Array.init 53 (fun i -> i) in
  let f x = x * x in
  let serial = pool_map ~workers:1 f tasks in
  let parallel = pool_map ~workers:4 f tasks in
  checkb "map agrees across worker counts" true (serial = parallel);
  checki "first" 0 parallel.(0);
  checki "last" (52 * 52) parallel.(52)

let test_pool_consume_exactly_once () =
  let n = 101 in
  let seen = Array.make n 0 in
  let outcome =
    Engine.Pool.run_guarded ~workers:4
      ~f:(fun ~worker:_ i _ -> i)
      ~consume:(fun i r ->
        checki "consume index matches result" i r;
        seen.(i) <- seen.(i) + 1)
      (Array.init n (fun i -> i))
  in
  checkb "completed" true (outcome = Engine.Pool.Completed);
  Array.iteri (fun i c -> checki (Printf.sprintf "task %d consumed once" i) 1 c) seen

let test_pool_propagates_exception () =
  let raised =
    try
      ignore
        (Engine.Pool.run_guarded ~workers:4
           ~f:(fun ~worker:_ i _ -> if i = 17 then failwith "boom" else i)
           ~consume:(fun _ _ -> ())
           (Array.init 64 (fun i -> i)));
      false
    with Failure msg -> msg = "boom"
  in
  checkb "worker failure re-raised in caller" true raised

(* ------------------------------------------------------------------ *)
(* Sink: JSON round-trip *)

let sample_record =
  {
    Engine.Sink.key = "t9/1/2";
    experiment = "t9";
    sweep_point = 1;
    point_label = "eps=0.25 \"quoted\"\n";
    trial = 2;
    attempt = 1;
    seed = 123456789;
    params = [ ("epsilon", 0.25); ("n", 205.) ];
    values = [ ("max_steps", 57.); ("ratio", 1.1023456789012345) ];
    wall_ns = 98765.4321;
  }

let test_sink_roundtrip () =
  let line = Engine.Sink.record_to_json sample_record in
  checkb "one line" true (not (String.contains line '\n'));
  match Engine.Sink.record_of_json line with
  | None -> Alcotest.fail "round-trip failed to parse"
  | Some r ->
    checkb "round-trip preserves the record (incl. wall_ns float)" true
      (Engine.Sink.equal_ignoring_wall sample_record r
      && r.Engine.Sink.wall_ns = sample_record.Engine.Sink.wall_ns);
    checks "label with escapes survives" sample_record.Engine.Sink.point_label
      r.Engine.Sink.point_label

let test_sink_rejects_garbage () =
  let line = Engine.Sink.record_to_json sample_record in
  let truncated = String.sub line 0 (String.length line / 2) in
  checkb "truncated line rejected" true
    (Engine.Sink.record_of_json truncated = None);
  checkb "empty line rejected" true (Engine.Sink.record_of_json "" = None);
  checkb "non-object rejected" true (Engine.Sink.record_of_json "42" = None)

let test_mkdir_p_nested () =
  with_temp_dir (fun dir ->
      let nested = Filename.concat (Filename.concat dir "a") "b" in
      Engine.Sink.mkdir_p nested;
      checkb "nested dir created" true (Sys.is_directory nested);
      (* idempotent *)
      Engine.Sink.mkdir_p nested;
      let file = Filename.concat nested "f" in
      let oc = open_out file in
      close_out oc;
      checkb "regular file rejected" true
        (match Engine.Sink.mkdir_p file with
        | () -> false
        | exception Failure _ -> true))

(* ------------------------------------------------------------------ *)
(* Plan: parallel vs serial, and resume *)

let run_t9 ~dir ~workers ~resume =
  match Engine.Plan.execute ~workers ~resume ~progress:false ~out_dir:dir ~ctx t9 with
  | Some o -> o
  | None -> Alcotest.fail "t9 lost its jobs view"

let sorted_records dir =
  let records =
    Engine.Checkpoint.records (Engine.Sink.store_path ~dir ~experiment:"t9")
  in
  List.sort
    (fun a b -> compare a.Engine.Sink.key b.Engine.Sink.key)
    records

let check_same_records label a b =
  checki (label ^ ": same count") (List.length a) (List.length b);
  List.iter2
    (fun ra rb ->
      checkb
        (label ^ ": record " ^ ra.Engine.Sink.key ^ " identical")
        true
        (Engine.Sink.equal_ignoring_wall ra rb))
    a b

let test_parallel_matches_serial () =
  with_temp_dir (fun dir_a ->
      with_temp_dir (fun dir_b ->
          let oa = run_t9 ~dir:dir_a ~workers:1 ~resume:false in
          let ob = run_t9 ~dir:dir_b ~workers:4 ~resume:false in
          checki "same plan size" oa.Engine.Plan.total_jobs
            ob.Engine.Plan.total_jobs;
          check_same_records "jobs=1 vs jobs=4" (sorted_records dir_a)
            (sorted_records dir_b)))

let test_resume_reexecutes_only_missing () =
  with_temp_dir (fun dir_full ->
      with_temp_dir (fun dir ->
          let _ = run_t9 ~dir:dir_full ~workers:2 ~resume:false in
          let full = sorted_records dir_full in
          let _ = run_t9 ~dir ~workers:2 ~resume:false in
          let store = Engine.Sink.store_path ~dir ~experiment:"t9" in
          (* Truncate mid-run: keep 4 whole records plus a partial line,
             as a crash during the 5th write would. *)
          let all_lines =
            let ic = open_in store in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let rec go acc =
                  match input_line ic with
                  | exception End_of_file -> List.rev acc
                  | l -> go (l :: acc)
                in
                go [])
          in
          let total = List.length all_lines in
          checkb "enough records to truncate" true (total > 5);
          let oc = open_out store in
          List.iteri
            (fun i l ->
              if i < 4 then (output_string oc l; output_char oc '\n')
              else if i = 4 then
                (* partial write: half a record, no newline *)
                output_string oc (String.sub l 0 (String.length l / 2)))
            all_lines;
          close_out oc;
          let o = run_t9 ~dir ~workers:2 ~resume:true in
          checki "total plan unchanged" total o.Engine.Plan.total_jobs;
          checki "exactly the 4 intact records skipped" 4 o.Engine.Plan.skipped;
          checki "the rest re-executed" (total - 4) o.Engine.Plan.executed;
          let resumed = sorted_records dir in
          (* No duplicates: keys are unique. *)
          let keys = List.map (fun r -> r.Engine.Sink.key) resumed in
          checki "no duplicate records" (List.length keys)
            (List.length (List.sort_uniq compare keys));
          check_same_records "resumed vs uninterrupted" resumed full))

let test_fresh_run_truncates () =
  with_temp_dir (fun dir ->
      let _ = run_t9 ~dir ~workers:2 ~resume:false in
      let n1 = List.length (sorted_records dir) in
      let _ = run_t9 ~dir ~workers:2 ~resume:false in
      checki "non-resume rerun does not duplicate" n1
        (List.length (sorted_records dir)))

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "seed_tree: stable" `Quick test_seed_tree_stable;
        Alcotest.test_case "seed_tree: distinct coordinates" `Quick
          test_seed_tree_distinct;
        Alcotest.test_case "seed_tree: order-independent" `Quick
          test_seed_tree_order_independent;
        Alcotest.test_case "pool: map matches serial" `Quick
          test_pool_map_matches_serial;
        Alcotest.test_case "pool: consume exactly once" `Quick
          test_pool_consume_exactly_once;
        Alcotest.test_case "pool: exception propagation" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "sink: JSON round-trip" `Quick test_sink_roundtrip;
        Alcotest.test_case "sink: rejects garbage" `Quick
          test_sink_rejects_garbage;
        Alcotest.test_case "sink: mkdir_p" `Quick test_mkdir_p_nested;
        Alcotest.test_case "plan: jobs=4 equals jobs=1" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "plan: resume after truncation" `Quick
          test_resume_reexecutes_only_missing;
        Alcotest.test_case "plan: fresh run truncates store" `Quick
          test_fresh_run_truncates;
      ] );
  ]
