(* The audits `repro_cli doctor` folds over, called directly on scratch
   directories: each file kind is audited by the library that owns it,
   so its rules are tested here with no binary involved. *)

open Service

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let problems = List.filter_map (function `Problem s -> Some s | _ -> None)
let notes = List.filter_map (function `Note s -> Some s | _ -> None)
let infos = List.filter_map (function `Info s -> Some s | _ -> None)

(* [lines] has one line containing [sub]. *)
let has label ~sub lines =
  Alcotest.(check bool)
    (label ^ ": " ^ sub ^ " in\n" ^ String.concat "\n" lines)
    true
    (List.exists (contains ~sub) lines)

let lacks label ~sub lines =
  Alcotest.(check bool)
    (label ^ ": no " ^ sub ^ " in\n" ^ String.concat "\n" lines)
    false
    (List.exists (contains ~sub) lines)

let with_dir f =
  let dir = Filename.temp_file "doctor" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write dir file text =
  Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
      output_string oc text)

let read path = In_channel.with_open_bin path In_channel.input_all

(* [s] with its first [sub] replaced by [by]. *)
let replace ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Sockets *)

(* A socket file with no listener: what a SIGKILLed daemon leaves. *)
let plant_stale path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.close fd

let probe_string = function
  | `Live -> "live"
  | `Stale -> "stale"
  | `Gone -> "gone"
  | `Error e -> "error " ^ e

let check_probe label expect path =
  Alcotest.(check string) label expect (probe_string (Client.probe path))

let test_socket_audit () =
  with_dir (fun dir ->
      plant_stale (Filename.concat dir "dead.sock");
      let lines, served = Client.audit_dir dir in
      Alcotest.(check bool) "no daemon serves" false served;
      has "stale socket" ~sub:"dead.sock: stale socket file" (problems lines));
  with_dir (fun dir ->
      let path = Filename.concat dir "live.sock" in
      let s = Server_helpers.start_server (Server_helpers.base_cfg path) in
      Fun.protect
        ~finally:(fun () -> ignore (Server_helpers.stop_server s))
        (fun () ->
          let lines, served = Client.audit_dir dir in
          Alcotest.(check bool) "a daemon serves" true served;
          Alcotest.(check (list string)) "no problem" [] (problems lines);
          has "live socket" ~sub:"live.sock: a live renamed daemon is serving"
            (notes lines)))

(* The probe's [`Stale] is exactly the state the server reclaims: plant
   a dead socket, boot over it, and the path serves again. *)
let test_probe_matches_reclaim () =
  let path = Server_helpers.fresh_socket_path () in
  check_probe "no file" "gone" path;
  plant_stale path;
  check_probe "planted dead socket" "stale" path;
  let s = Server_helpers.start_server (Server_helpers.base_cfg path) in
  Fun.protect
    ~finally:(fun () -> ignore (Server_helpers.stop_server s))
    (fun () -> check_probe "reclaimed and serving" "live" path);
  check_probe "a graceful drain unlinks its socket" "gone" path

(* ------------------------------------------------------------------ *)
(* Journals *)

let journal dir file records =
  let path = Filename.concat dir file in
  let j = Server_helpers.get "open journal" (Journal.open_append ~path) in
  List.iter (Journal.append j) records;
  Journal.close j;
  path

let grant name epoch = Journal.Grant { name; epoch; client = 1; token = 0 }

let test_journal_audit () =
  with_dir (fun dir ->
      (* A flipped payload byte fails the first record's CRC. *)
      let damaged = journal dir "damaged.journal" [ grant 0 1; grant 1 2 ] in
      let b = Bytes.of_string (read damaged) in
      Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0xff));
      write dir "damaged.journal" (Bytes.to_string b);
      (* A record header with no body: a crash mid-append. *)
      let torn =
        journal dir "torn.journal"
          [ grant 3 1; Journal.Release { name = 3; epoch = 1 } ]
      in
      write dir "torn.journal" (read torn ^ "\000\000\000\040abc");
      ignore (journal dir "held.journal" [ grant 5 1 ]);
      let lines = Journal.audit_dir ~served:false dir in
      has "CRC damage" ~sub:"damaged.journal: 1 damaged record(s)"
        (problems lines);
      has "torn tail" ~sub:"torn.journal: torn tail record" (notes lines);
      lacks "torn tail" ~sub:"torn.journal" (problems lines);
      has "orphan" ~sub:"held.journal: 1 live grant(s) and no daemon serving"
        (notes lines);
      lacks "released names" ~sub:"torn.journal: 0 live grant(s) and"
        (notes lines);
      lacks "served" ~sub:"orphaned"
        (notes (Journal.audit_dir ~served:true dir)))

(* ------------------------------------------------------------------ *)
(* Chaos plans and verdicts *)

let broken_outcome () =
  match Chaos.Fault_plan.load ~file:"fixtures/chaos_broken_bound.json" with
  | Error e -> Alcotest.fail e
  | Ok (plan, _) -> (
    match Chaos.Chaos_runner.run_plan plan with
    | Error e -> Alcotest.fail e
    | Ok o -> o)

let test_chaos_audit () =
  with_dir (fun dir ->
      let plan =
        Chaos.Fault_plan.make ~seed:5 ~procs:8 ~domains:1 ~algo:"rebatching"
          ~capacity:16 ~crash_frac:0.5 ()
      in
      let reindented =
        String.concat ",\n  "
          (String.split_on_char ',' (Chaos.Fault_plan.to_json plan))
      in
      write dir (Chaos.Fault_plan.file ~seed:5) reindented;
      Chaos.Chaos_runner.record ~dir (broken_outcome ());
      let lines = Chaos.Chaos_runner.audit_dir dir in
      has "plan summary" ~sub:"chaos_plan_5.json: plan seed=5" (infos lines);
      has "re-indented plan" ~sub:"chaos_plan_5.json: not in canonical form"
        (problems lines);
      lacks "recorded plan" ~sub:"chaos_plan_11.json" (problems lines);
      has "violating verdict"
        ~sub:
          "chaos_verdict_11.json: recorded invariant violation(s): \
           namespace-bound"
        (problems lines);
      lacks "matched verdict" ~sub:"no matching" (notes lines);
      Sys.remove (Filename.concat dir (Chaos.Fault_plan.file ~seed:11));
      has "unmatched verdict"
        ~sub:
          "chaos_verdict_11.json: verdict for seed 11 has no matching \
           chaos_plan_11.json"
        (notes (Chaos.Chaos_runner.audit_dir dir)))

let test_soak_summary () =
  let failures = [ (11, broken_outcome ()) ] in
  Alcotest.(check string)
    "json"
    "{\"kind\":\"chaos-soak\",\"runs\":3,\"failing\":1,\"failing_seeds\":[11],\"ok\":false,\"violations\":[\"namespace-bound\"]}"
    (Chaos.Chaos_runner.render_soak ~json:true ~runs:3 failures);
  Alcotest.(check string)
    "text"
    "chaos soak: 3 run(s), 1 violating (seeds: 11); violations: namespace-bound"
    (Chaos.Chaos_runner.render_soak ~json:false ~runs:3 failures);
  Alcotest.(check string)
    "clean" "chaos soak: 2 run(s), 0 violating (seeds: none)"
    (Chaos.Chaos_runner.render_soak ~json:false ~runs:2 [])

(* ------------------------------------------------------------------ *)
(* Counterexamples *)

module Explore = Analysis.Explore

(* A counterexample of the real, unmutated model: a one-step budget
   convicts every schedule of lock-freedom. *)
let unmutated_fixture () =
  let cfg = { Explore.default_renaming with step_budget = 1; crashes = 0 } in
  match Explore.renaming_world cfg with
  | Error e -> Alcotest.fail e
  | Ok w -> (
    match (Explore.explore ~max_transitions:100_000 w).Explore.violation with
    | None -> Alcotest.fail "a one-step budget convicts nothing"
    | Some v ->
      Explore.fixture_to_string
        (Explore.renaming_fixture cfg (Explore.minimize w v)))

let test_cex_audit () =
  let source = read "fixtures/modelcheck_claim_on_lose.cex.json" in
  with_dir (fun dir ->
      write dir "kept.cex.json" source;
      write dir "edited.cex.json" (replace ~sub:"name 2" ~by:"name 9" source);
      write dir "real.cex.json" (unmutated_fixture ());
      let lines = Mcheck.Worlds.audit_dir dir in
      has "committed fixture" ~sub:"kept.cex.json: cex model=rebatching"
        (infos lines);
      lacks "committed fixture" ~sub:"kept.cex.json" (problems lines);
      has "edited message"
        ~sub:"edited.cex.json: model-check counterexample: replay reproduces \
              a different violation"
        (problems lines);
      has "unmutated model"
        ~sub:"real.cex.json: counterexample against the unmutated model"
        (problems lines));
  match
    Mcheck.Worlds.judge_fixture (replace ~sub:"name 2" ~by:"name 9" source)
  with
  | Error (`Invalid e) ->
    has "replay verdict" ~sub:"different violation" [ e ]
  | Error `Clean -> Alcotest.fail "edited fixture replays clean"
  | Ok _ -> Alcotest.fail "edited fixture convicts"

let suite =
  [
    ( "doctor.audit",
      [
        Alcotest.test_case "sockets: stale is a problem, live a note" `Quick
          test_socket_audit;
        Alcotest.test_case "probe: stale where the server reclaims" `Quick
          test_probe_matches_reclaim;
        Alcotest.test_case "journals: damage, torn tail, orphan" `Quick
          test_journal_audit;
        Alcotest.test_case "chaos: edited plan, violation, unmatched" `Quick
          test_chaos_audit;
        Alcotest.test_case "chaos: soak summary" `Quick test_soak_summary;
        Alcotest.test_case "cex: edited message, unmutated model" `Quick
          test_cex_audit;
      ] );
  ]
