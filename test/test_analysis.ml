(* Tests for the static-analysis layer: the repro_lint determinism
   linter (AST-level, compiler-libs) and the vector-clock
   happens-before race checker over the multicore substrate. *)

(* ------------------------------------------------------------------ *)
(* Lint: helpers *)

let lint ~path source =
  match Lint.lint_source ~path ~source with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "unexpected parse error for %s: %s" path msg

let rule_ids findings =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Lint.rule) findings)

let check_rules what expected findings =
  Alcotest.(check (list string)) what expected (rule_ids findings)

(* ------------------------------------------------------------------ *)
(* Lint: one fixture per rule, plus its allowed scope *)

let test_lint_stdlib_random () =
  let source = "let f () = Random.int 5\n" in
  check_rules "flagged in lib/sim" [ "stdlib-random" ]
    (lint ~path:"lib/sim/x.ml" source);
  check_rules "allowed in lib/prng" [] (lint ~path:"lib/prng/x.ml" source)

let test_lint_wall_clock () =
  let source = "let now () = Unix.gettimeofday ()\n" in
  check_rules "flagged in lib/harness" [ "wall-clock" ]
    (lint ~path:"lib/harness/clock.ml" source);
  check_rules "allowed in the progress meter" []
    (lint ~path:"lib/engine/progress.ml" source);
  check_rules "flagged elsewhere in the engine" [ "wall-clock" ]
    (lint ~path:"lib/engine/watchdog.ml" source)

let test_lint_domain_spawn () =
  let source = "let d = Domain.spawn (fun () -> 0)\n" in
  check_rules "flagged in lib/sim" [ "domain-spawn" ]
    (lint ~path:"lib/sim/x.ml" source);
  check_rules "allowed in lib/shm" [] (lint ~path:"lib/shm/x.ml" source)

let test_lint_hashtbl_iteration () =
  let source = "let f h = Hashtbl.iter (fun _ _ -> ()) h\n" in
  check_rules "flagged in lib/" [ "hashtbl-iteration" ]
    (lint ~path:"lib/harness/x.ml" source);
  (* the rule's scope is lib/ and bin/ only *)
  check_rules "out of scope in examples/" []
    (lint ~path:"examples/x.ml" source)

let test_lint_poly_compare () =
  let source = "let f a b = compare a b\n" in
  check_rules "flagged in lib/stats" [ "poly-compare" ]
    (lint ~path:"lib/stats/x.ml" source);
  check_rules "out of scope elsewhere" [] (lint ~path:"lib/sim/x.ml" source);
  (* a typed comparator is the sanctioned replacement *)
  check_rules "Float.compare is fine" []
    (lint ~path:"lib/stats/x.ml" "let f a b = Float.compare a b\n")

let test_lint_journal_write () =
  let source = "let f fd b = Unix.write fd b 0 8\n" in
  check_rules "flagged in lib/service" [ "journal-write" ]
    (lint ~path:"lib/service/session.ml" source);
  check_rules "flagged in bin/renamed.ml" [ "journal-write" ]
    (lint ~path:"bin/renamed.ml" source);
  check_rules "allowed in the journal itself" []
    (lint ~path:"lib/service/journal.ml" source);
  (* the rule scopes to the serving layer, not the whole tree *)
  check_rules "out of scope elsewhere" []
    (lint ~path:"lib/engine/x.ml" source);
  check_rules "write_substring flagged too" [ "journal-write" ]
    (lint ~path:"lib/service/session.ml"
       "let f fd s = Unix.write_substring fd s 0 8\n")

let test_lint_stdout_print () =
  let source = "let f () = print_endline \"x\"\n" in
  check_rules "flagged in lib/sim" [ "stdout-print" ]
    (lint ~path:"lib/sim/x.ml" source);
  check_rules "allowed in bin/" [] (lint ~path:"bin/x.ml" source);
  check_rules "Printf.printf flagged too" [ "stdout-print" ]
    (lint ~path:"lib/sim/x.ml" "let f () = Printf.printf \"%d\" 3\n")

let test_lint_stdlib_prefix_stripped () =
  match lint ~path:"lib/sim/x.ml" "let x () = Stdlib.Random.bits ()\n" with
  | [ f ] ->
    Alcotest.(check string) "rule" "stdlib-random" f.Lint.rule;
    Alcotest.(check string) "ident" "Random.bits" f.Lint.ident
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Lint: inline allow comments and precision *)

let test_lint_allow_same_line () =
  check_rules "marker on the flagged line" []
    (lint ~path:"lib/sim/x.ml"
       "let f () = Random.int 5 (* repro-lint: allow stdlib-random *)\n")

let test_lint_allow_line_above () =
  check_rules "marker on the line above" []
    (lint ~path:"lib/sim/x.ml"
       "(* repro-lint: allow stdlib-random *)\nlet f () = Random.int 5\n")

let test_lint_allow_is_per_rule () =
  check_rules "marker for another rule does not suppress"
    [ "stdlib-random" ]
    (lint ~path:"lib/sim/x.ml"
       "(* repro-lint: allow wall-clock *)\nlet f () = Random.int 5\n")

let test_lint_allow_too_far () =
  check_rules "marker two lines above does not suppress"
    [ "stdlib-random" ]
    (lint ~path:"lib/sim/x.ml"
       "(* repro-lint: allow stdlib-random *)\nlet a = 1\n\
        let f () = Random.int 5\n")

let test_lint_strings_never_flag () =
  check_rules "banned name inside a string literal" []
    (lint ~path:"lib/sim/x.ml" "let s = \"Random.int gettimeofday\"\n")

let test_lint_locations () =
  let source = "let a = 1\nlet b = 2\nlet c () = Random.int 9\n" in
  match lint ~path:"lib/sim/x.ml" source with
  | [ f ] ->
    Alcotest.(check int) "line" 3 f.Lint.line;
    Alcotest.(check string) "file" "lib/sim/x.ml" f.Lint.file
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_parse_error () =
  match Lint.lint_source ~path:"lib/sim/x.ml" ~source:"let let = in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_lint_json () =
  let findings = lint ~path:"lib/sim/x.ml" "let f () = Random.int 5\n" in
  let json = Lint.findings_to_json findings in
  Alcotest.(check bool) "is an object" true (String.length json > 0 && json.[0] = '{');
  Alcotest.(check bool)
    "carries the schema version" true
    (contains json (Printf.sprintf "\"schema\":%S" Lint.json_schema));
  Alcotest.(check bool) "mentions the rule" true (contains json "stdlib-random");
  (* empty reports keep the envelope *)
  let empty = Lint.findings_to_json [] in
  Alcotest.(check bool)
    "empty report keeps schema" true
    (contains empty "\"findings\":[]")

(* ------------------------------------------------------------------ *)
(* Lint: the structural atomic-get-set rule *)

let test_lint_atomic_get_set () =
  let rmw = "let bump c = Atomic.set c (Atomic.get c + 1)\n" in
  check_rules "read-modify-write flagged in lib/service" [ "atomic-get-set" ]
    (lint ~path:"lib/service/x.ml" rmw);
  check_rules "flagged in lib/shm" [ "atomic-get-set" ]
    (lint ~path:"lib/shm/x.ml" rmw);
  check_rules "out of scope elsewhere" [] (lint ~path:"lib/sim/x.ml" rmw);
  (* the get-before-set form is the same window *)
  check_rules "get bound then set flagged" [ "atomic-get-set" ]
    (lint ~path:"lib/service/x.ml"
       "let bump c = let v = Atomic.get c in Atomic.set c (v + 1)\n");
  (* distinct atomics are not a window *)
  check_rules "distinct atomics fine" []
    (lint ~path:"lib/service/x.ml"
       "let move a b = Atomic.set b (Atomic.get a + 1)\n");
  (* a set followed only later by a get reads the new value — no window *)
  check_rules "set then get fine" []
    (lint ~path:"lib/service/x.ml"
       "let f c = Atomic.set c 1; Atomic.get c\n");
  (* a get captured in an inner closure pairs with sets in that closure,
     not with the enclosing function's set *)
  check_rules "closure scoping" []
    (lint ~path:"lib/service/x.ml"
       "let f c = let g () = Atomic.get c in Atomic.set c 0; g\n");
  (* sanctioned escape: compare_and_set *)
  check_rules "compare_and_set fine" []
    (lint ~path:"lib/service/x.ml"
       "let f c = Atomic.compare_and_set c 0 1\n");
  check_rules "inline allow suppresses" []
    (lint ~path:"lib/service/x.ml"
       "(* repro-lint: allow atomic-get-set — single-writer counter *)\n\
        let bump c = Atomic.set c (Atomic.get c + 1)\n")

(* ------------------------------------------------------------------ *)
(* Lint: file walk and CLI driver exit codes *)

let with_tmp_tree f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro_lint_test_%d" (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let write_file dir rel content =
  let path = Filename.concat dir rel in
  let parent = Filename.dirname path in
  if not (Sys.file_exists parent) then Unix.mkdir parent 0o755;
  let oc = open_out path in
  output_string oc content;
  close_out oc

let test_collect_ml_files () =
  with_tmp_tree (fun dir ->
      write_file dir "b.ml" "let b = 2\n";
      write_file dir "a.ml" "let a = 1\n";
      write_file dir "notes.txt" "not code\n";
      write_file dir "_build/skip.ml" "let s = 0\n";
      write_file dir ".hidden/skip.ml" "let s = 0\n";
      write_file dir "sub/c.ml" "let c = 3\n";
      let files =
        List.map
          (fun p -> Lint.normalize_path ~root:dir p)
          (Lint.collect_ml_files dir)
      in
      Alcotest.(check (list string))
        "sorted, .ml only, _/. skipped"
        [ "a.ml"; "b.ml"; "sub/c.ml" ]
        files)

let run_lint ~root ~paths =
  let buf = Buffer.create 256 in
  let rc =
    Lint.run ~root ~paths ~out:(Buffer.add_string buf) ()
  in
  (rc, Buffer.contents buf)

let test_run_exit_codes () =
  with_tmp_tree (fun dir ->
      write_file dir "lib/clean.ml" "let x = 1\n";
      let rc, out_clean = run_lint ~root:dir ~paths:[] in
      Alcotest.(check int) "clean tree exits 0" 0 rc;
      Alcotest.(check string) "clean report" "repro_lint: clean\n" out_clean;
      write_file dir "lib/bad.ml" "let f () = Random.int 5\n";
      let rc, out_bad = run_lint ~root:dir ~paths:[] in
      Alcotest.(check int) "violations exit 1" 1 rc;
      Alcotest.(check bool) "report names the file" true
        (String.length out_bad > 0);
      write_file dir "lib/broken.ml" "let let = in";
      let rc, _ = run_lint ~root:dir ~paths:[] in
      Alcotest.(check int) "parse error exits 2" 2 rc;
      let rc, _ =
        run_lint ~root:dir ~paths:[ Filename.concat dir "no-such-dir" ]
      in
      Alcotest.(check int) "missing path exits 2" 2 rc)

(* ------------------------------------------------------------------ *)
(* Hb: deterministic single-threaded monitor checks.  Thread ids here
   are dense monitor ids, not domains — no concurrency is needed to
   exercise the clock algebra. *)

let test_vclock () =
  let c = Analysis.Vclock.create ~cap:3 in
  Alcotest.(check int) "capacity" 3 (Analysis.Vclock.cap c);
  Analysis.Vclock.tick c 1;
  Analysis.Vclock.tick c 1;
  Analysis.Vclock.set c 2 7;
  Alcotest.(check int) "tick" 2 (Analysis.Vclock.get c 1);
  let d = Analysis.Vclock.copy c in
  Analysis.Vclock.tick d 0;
  Alcotest.(check bool) "c <= d" true (Analysis.Vclock.leq c d);
  Alcotest.(check bool) "d <= c fails" false (Analysis.Vclock.leq d c);
  Analysis.Vclock.join c d;
  Alcotest.(check bool) "join reaches d" true (Analysis.Vclock.leq d c);
  (try
     ignore (Analysis.Vclock.get c 3);
     Alcotest.fail "out-of-capacity get should raise"
   with Invalid_argument _ -> ());
  try
    Analysis.Vclock.join c (Analysis.Vclock.create ~cap:4);
    Alcotest.fail "capacity mismatch should raise"
  with Invalid_argument _ -> ()

let test_hb_unordered_writes () =
  let hb = Analysis.Hb.create ~mode:Analysis.Hb.Collect () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  Analysis.Hb.plain_write hb ~thread:b ~loc:"x";
  match Analysis.Hb.races hb with
  | [ r ] ->
    Alcotest.(check string) "location" "x" r.Analysis.Hb.loc;
    Alcotest.(check string) "prior" "a" r.Analysis.Hb.prior_name;
    Alcotest.(check string) "current" "b" r.Analysis.Hb.current_name;
    let s = Analysis.Hb.race_to_string r in
    Alcotest.(check bool) "report mentions the location" true
      (String.length s > 0)
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

let test_hb_raise_mode () =
  let hb = Analysis.Hb.create () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  try
    Analysis.Hb.plain_write hb ~thread:b ~loc:"x";
    Alcotest.fail "expected Hb.Race"
  with Analysis.Hb.Race r ->
    Alcotest.(check string) "location" "x" r.Analysis.Hb.loc

let test_hb_spawn_join_order () =
  let hb = Analysis.Hb.create () in
  let parent = Analysis.Hb.register hb ~name:"parent" in
  let child = Analysis.Hb.register hb ~name:"child" in
  Analysis.Hb.plain_write hb ~thread:parent ~loc:"x";
  Analysis.Hb.spawn hb ~parent ~child;
  Analysis.Hb.plain_write hb ~thread:child ~loc:"x";
  Analysis.Hb.join hb ~parent ~child;
  Analysis.Hb.plain_read hb ~thread:parent ~loc:"x";
  Alcotest.(check int) "race-free" 0 (List.length (Analysis.Hb.races hb))

let test_hb_release_acquire () =
  let hb = Analysis.Hb.create () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  Analysis.Hb.atomic_op hb ~thread:a ~loc:"latch" ~sync:`Release;
  Analysis.Hb.atomic_op hb ~thread:b ~loc:"latch" ~sync:`Acquire;
  Analysis.Hb.plain_write hb ~thread:b ~loc:"x";
  Alcotest.(check int) "ordered by the latch" 0
    (List.length (Analysis.Hb.races hb));
  (* Without the acquire the same accesses race. *)
  let hb = Analysis.Hb.create ~mode:Analysis.Hb.Collect () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  Analysis.Hb.atomic_op hb ~thread:a ~loc:"latch" ~sync:`Release;
  Analysis.Hb.plain_write hb ~thread:b ~loc:"x";
  Alcotest.(check int) "release alone orders nothing" 1
    (List.length (Analysis.Hb.races hb))

let test_hb_rmw_chain () =
  let hb = Analysis.Hb.create () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  let r =
    Analysis.Hb.atomic_op_locked hb ~thread:a ~loc:"cell" ~sync:`Rmw
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "locked op returns its value" 42 r;
  Analysis.Hb.atomic_op hb ~thread:b ~loc:"cell" ~sync:`Rmw;
  Analysis.Hb.plain_write hb ~thread:b ~loc:"x";
  Alcotest.(check int) "TAS chain orders the writes" 0
    (List.length (Analysis.Hb.races hb))

let test_hb_read_read_no_race () =
  let hb = Analysis.Hb.create () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_read hb ~thread:a ~loc:"x";
  Analysis.Hb.plain_read hb ~thread:b ~loc:"x";
  Alcotest.(check int) "reads never conflict" 0
    (List.length (Analysis.Hb.races hb))

let test_hb_write_read_race () =
  let hb = Analysis.Hb.create ~mode:Analysis.Hb.Collect () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let b = Analysis.Hb.register hb ~name:"b" in
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  Analysis.Hb.plain_read hb ~thread:b ~loc:"x";
  match Analysis.Hb.races hb with
  | [ r ] ->
    Alcotest.(check bool) "write/read pair" true
      (r.Analysis.Hb.prior.Analysis.Hb.kind = Analysis.Hb.Write
      && r.Analysis.Hb.current.Analysis.Hb.kind = Analysis.Hb.Read)
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

let test_hb_capacity_and_stats () =
  let hb = Analysis.Hb.create ~max_threads:2 () in
  let a = Analysis.Hb.register hb ~name:"a" in
  let _b = Analysis.Hb.register hb ~name:"b" in
  (try
     ignore (Analysis.Hb.register hb ~name:"c");
     Alcotest.fail "third register should exhaust capacity"
   with Invalid_argument _ -> ());
  (try
     Analysis.Hb.plain_write hb ~thread:7 ~loc:"x";
     Alcotest.fail "unregistered thread should raise"
   with Invalid_argument _ -> ());
  Analysis.Hb.plain_write hb ~thread:a ~loc:"x";
  Analysis.Hb.atomic_op hb ~thread:a ~loc:"cell" ~sync:`Release;
  let s = Analysis.Hb.stats hb in
  Alcotest.(check int) "threads" 2 s.Analysis.Hb.threads;
  Alcotest.(check int) "atomic locations" 1 s.Analysis.Hb.atomic_locations;
  Alcotest.(check int) "plain locations" 1 s.Analysis.Hb.plain_locations;
  Alcotest.(check bool) "events counted" true (s.Analysis.Hb.events >= 2)

(* ------------------------------------------------------------------ *)
(* Hb_space / Hb_runner: real domains *)

(* Two domains writing the same plain location with no synchronization
   between them: a race in every interleaving, so the checker must flag
   it deterministically. *)
let test_hb_space_racy_fixture () =
  let sp =
    Analysis.Hb_space.create ~mode:Analysis.Hb.Collect ~capacity:4 ()
  in
  let _main = Analysis.Hb_space.register_thread ~name:"main" sp in
  let worker () = Analysis.Hb_space.write_plain sp "shared-counter" in
  (* repro-lint: allow domain-spawn *)
  let d1 = Domain.spawn worker in
  (* repro-lint: allow domain-spawn *)
  let d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  match Analysis.Hb_space.races sp with
  | [] -> Alcotest.fail "unsynchronized writes must race"
  | r :: _ ->
    Alcotest.(check string) "location" "shared-counter" r.Analysis.Hb.loc

let test_hb_space_operations () =
  let sp = Analysis.Hb_space.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Analysis.Hb_space.capacity sp);
  Alcotest.(check bool) "first TAS wins" true (Analysis.Hb_space.tas sp 1);
  Alcotest.(check bool) "second TAS loses" false (Analysis.Hb_space.tas sp 1);
  Alcotest.(check bool) "taken" true (Analysis.Hb_space.is_taken sp 1);
  Analysis.Hb_space.release sp 1;
  Alcotest.(check bool) "released" false (Analysis.Hb_space.is_taken sp 1);
  Analysis.Hb_space.write_plain sp "slot";
  Analysis.Hb_space.read_plain sp "slot";
  Alcotest.(check int) "single domain is race-free" 0
    (List.length (Analysis.Hb_space.races sp))

let certify_rebatching ~seed ~procs ~domains =
  let instance = Renaming.Rebatching.make ~t0:3 ~n:procs () in
  Analysis.Hb_runner.certify ~domains ~seed ~procs
    ~capacity:(Renaming.Rebatching.size instance)
    ~algo:(fun env -> Renaming.Rebatching.get_name env instance)
    ()

let test_certify_clean_run () =
  match certify_rebatching ~seed:11 ~procs:48 ~domains:4 with
  | Error races ->
    Alcotest.failf "unexpected race: %s"
      (Analysis.Hb.race_to_string (List.hd races))
  | Ok o ->
    Alcotest.(check bool) "unique names" true
      (Shm.Domain_runner.check_unique_names o.Analysis.Hb_runner.result);
    Alcotest.(check int) "main + one thread per domain" 5
      o.Analysis.Hb_runner.stats.Analysis.Hb.threads;
    Alcotest.(check bool) "no races collected" true
      (o.Analysis.Hb_runner.races = []);
    Alcotest.(check bool) "events witnessed" true
      (o.Analysis.Hb_runner.stats.Analysis.Hb.events > 0)

let test_certify_adaptive () =
  let space = Renaming.Object_space.create () in
  (* ladder depth 16 covers any feasible proc count here *)
  let capacity = Renaming.Object_space.total_size space 16 in
  match
    Analysis.Hb_runner.certify ~domains:4 ~seed:5 ~procs:32 ~capacity
      ~algo:(fun env -> Renaming.Adaptive_rebatching.get_name env space)
      ()
  with
  | Error races ->
    Alcotest.failf "unexpected race: %s"
      (Analysis.Hb.race_to_string (List.hd races))
  | Ok o ->
    Alcotest.(check bool) "unique names" true
      (Shm.Domain_runner.check_unique_names o.Analysis.Hb_runner.result)

let qcheck_certify =
  QCheck.Test.make ~name:"hb-certified runs are race-free with unique names"
    ~count:8
    QCheck.(pair small_int (pair (int_range 1 48) (int_range 1 5)))
    (fun (seed, (procs, domains)) ->
      match certify_rebatching ~seed ~procs ~domains with
      | Ok o -> Shm.Domain_runner.check_unique_names o.Analysis.Hb_runner.result
      | Error _ -> false)

let suite =
  [
    ( "analysis.lint",
      [
        Alcotest.test_case "stdlib-random rule" `Quick test_lint_stdlib_random;
        Alcotest.test_case "wall-clock rule" `Quick test_lint_wall_clock;
        Alcotest.test_case "domain-spawn rule" `Quick test_lint_domain_spawn;
        Alcotest.test_case "hashtbl-iteration rule" `Quick
          test_lint_hashtbl_iteration;
        Alcotest.test_case "poly-compare rule" `Quick test_lint_poly_compare;
        Alcotest.test_case "journal-write rule" `Quick test_lint_journal_write;
        Alcotest.test_case "stdout-print rule" `Quick test_lint_stdout_print;
        Alcotest.test_case "atomic-get-set rule" `Quick
          test_lint_atomic_get_set;
        Alcotest.test_case "Stdlib. prefix stripped" `Quick
          test_lint_stdlib_prefix_stripped;
        Alcotest.test_case "allow comment on the line" `Quick
          test_lint_allow_same_line;
        Alcotest.test_case "allow comment above" `Quick
          test_lint_allow_line_above;
        Alcotest.test_case "allow comment is per rule" `Quick
          test_lint_allow_is_per_rule;
        Alcotest.test_case "allow comment range is tight" `Quick
          test_lint_allow_too_far;
        Alcotest.test_case "string literals never flag" `Quick
          test_lint_strings_never_flag;
        Alcotest.test_case "exact locations" `Quick test_lint_locations;
        Alcotest.test_case "parse errors surface" `Quick test_lint_parse_error;
        Alcotest.test_case "json output" `Quick test_lint_json;
        Alcotest.test_case "file walk" `Quick test_collect_ml_files;
        Alcotest.test_case "driver exit codes" `Quick test_run_exit_codes;
      ] );
    ( "analysis.hb",
      [
        Alcotest.test_case "vector clocks" `Quick test_vclock;
        Alcotest.test_case "unordered writes race" `Quick
          test_hb_unordered_writes;
        Alcotest.test_case "raise mode" `Quick test_hb_raise_mode;
        Alcotest.test_case "spawn/join edges order" `Quick
          test_hb_spawn_join_order;
        Alcotest.test_case "release/acquire edges" `Quick
          test_hb_release_acquire;
        Alcotest.test_case "rmw chains order" `Quick test_hb_rmw_chain;
        Alcotest.test_case "reads never conflict" `Quick
          test_hb_read_read_no_race;
        Alcotest.test_case "write/read race" `Quick test_hb_write_read_race;
        Alcotest.test_case "capacity and stats" `Quick
          test_hb_capacity_and_stats;
      ] );
    ( "analysis.racecheck",
      [
        Alcotest.test_case "racy two-domain fixture flagged" `Quick
          test_hb_space_racy_fixture;
        Alcotest.test_case "instrumented space semantics" `Quick
          test_hb_space_operations;
        Alcotest.test_case "rebatching certified on 4 domains" `Quick
          test_certify_clean_run;
        Alcotest.test_case "adaptive certified on 4 domains" `Quick
          test_certify_adaptive;
        QCheck_alcotest.to_alcotest qcheck_certify;
      ] );
  ]
