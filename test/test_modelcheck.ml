(* Tests for the systematic explorer (Analysis.Explore), the Wing-Gong
   linearizability checker (Analysis.Linz), the lease protocol model
   (Service.Lease_model via Mcheck.Worlds) and the counterexample
   fixture pipeline — including the sampled-vs-exhaustive
   cross-validation properties tying the model checker back to the
   simulation core and the happens-before race certifier. *)

module Explore = Analysis.Explore
module Linz = Analysis.Linz
module Worlds = Mcheck.Worlds

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Toy worlds: the DFS and the sleep-set reduction on a known space *)

(* [toy ~deps] — two processes, one action each; with [deps] both
   actions touch location 0 (dependent), otherwise each touches its own
   (independent).  The full space has 2 interleavings; sleep sets must
   keep both when dependent and explore only 1 when independent. *)
let toy ~deps () : Explore.world =
  let done_ = [| false; false |] in
  {
    Explore.w_label = "toy";
    nprocs = 2;
    enabled =
      (fun () ->
        List.concat_map
          (fun pid ->
            if done_.(pid) then []
            else
              [
                {
                  Explore.pid;
                  tag = 0;
                  label = "op";
                  footprint = (if deps then 0 else pid);
                };
              ])
          [ 0; 1 ]);
    apply =
      (fun a ->
        done_.(a.Explore.pid) <- true;
        None);
    at_end = (fun () -> None);
    save =
      (fun () ->
        let s = Array.copy done_ in
        fun () -> Array.blit s 0 done_ 0 2);
    reset = (fun () -> Array.fill done_ 0 2 false);
  }

let test_toy_independent () =
  let full = Explore.explore ~sleep_sets:false (toy ~deps:false ()) in
  let slept = Explore.explore (toy ~deps:false ()) in
  Alcotest.(check int) "full DFS sees both orders" 2 full.Explore.stats.schedules;
  Alcotest.(check int) "sleep sets keep one representative" 1
    slept.Explore.stats.schedules;
  Alcotest.(check bool) "no violation" true (slept.Explore.violation = None)

let test_toy_dependent () =
  let full = Explore.explore ~sleep_sets:false (toy ~deps:true ()) in
  let slept = Explore.explore (toy ~deps:true ()) in
  Alcotest.(check int) "full DFS sees both orders" 2 full.Explore.stats.schedules;
  Alcotest.(check int) "dependent actions are not pruned" 2
    slept.Explore.stats.schedules

(* ------------------------------------------------------------------ *)
(* Renaming worlds: clean exhaustive runs *)

let world_of cfg =
  match Explore.renaming_world cfg with
  | Ok w -> w
  | Error e -> Alcotest.failf "renaming_world: %s" e

let test_rebatching_clean () =
  let cfg = Explore.default_renaming in
  let o = Explore.explore (world_of cfg) in
  Alcotest.(check bool) "complete" true o.Explore.stats.complete;
  Alcotest.(check bool) "no violation" true (o.Explore.violation = None);
  (* deterministic space: n=3, seed 1, t0=3, one crash point budget *)
  Alcotest.(check int) "schedule count pinned" 58 o.Explore.stats.schedules

let test_longlived_clean () =
  let cfg =
    { Explore.default_renaming with procs = 2; rounds = 2; crashes = 1 }
  in
  let o = Explore.explore (world_of cfg) in
  Alcotest.(check bool) "complete" true o.Explore.stats.complete;
  Alcotest.(check bool) "no violation (incl. linearizability)" true
    (o.Explore.violation = None);
  Alcotest.(check int) "schedule count pinned" 106 o.Explore.stats.schedules

(* The reduction is an optimization, never a verdict change: on the same
   configuration the pruned and unpruned searches must reach the same
   terminal outcomes. *)
let outcome_set cfg ~sleep_sets =
  let seen = Hashtbl.create 32 in
  let on_terminal names =
    let key =
      String.concat ","
        (Array.to_list
           (Array.map
              (function None -> "-" | Some u -> string_of_int u)
              names))
    in
    Hashtbl.replace seen key ()
  in
  let w =
    match Explore.renaming_world ~on_terminal cfg with
    | Ok w -> w
    | Error e -> Alcotest.failf "renaming_world: %s" e
  in
  let o = Explore.explore ~sleep_sets w in
  Alcotest.(check bool) "complete" true o.Explore.stats.complete;
  ( List.sort String.compare
      (Hashtbl.to_seq_keys seen |> List.of_seq),
    o.Explore.stats.schedules )

let test_sleep_sets_preserve_outcomes () =
  let cfg = { Explore.default_renaming with procs = 2 } in
  let full, full_n = outcome_set cfg ~sleep_sets:false in
  let slept, slept_n = outcome_set cfg ~sleep_sets:true in
  Alcotest.(check (list string)) "same terminal outcomes" full slept;
  Alcotest.(check bool) "reduction explores no more schedules" true
    (slept_n <= full_n)

(* ------------------------------------------------------------------ *)
(* Seeded bugs convict, and counterexamples stay replayable *)

let convict cfg expect =
  let w = world_of cfg in
  let o = Explore.explore w in
  match o.Explore.violation with
  | None -> Alcotest.failf "mutation %s not convicted" expect
  | Some v ->
    Alcotest.(check bool)
      (Printf.sprintf "message mentions %s" expect)
      true (contains v.Explore.message expect);
    let m = Explore.minimize w v in
    Alcotest.(check bool) "minimization kept a violation" true
      (contains m.Explore.message ""
      && List.length m.Explore.schedule <= List.length v.Explore.schedule);
    (* the minimized schedule replays to the violation *)
    (match
       Explore.replay w
         (List.map
            (fun (a : Explore.action) -> (a.Explore.pid, a.Explore.tag))
            m.Explore.schedule)
     with
    | Ok (Some _) -> ()
    | Ok None -> Alcotest.fail "minimized schedule replays clean"
    | Error e -> Alcotest.failf "minimized schedule not replayable: %s" e);
    m

let test_mutation_claim_on_lose () =
  let cfg =
    { Explore.default_renaming with crashes = 0; mutation = Some "claim-on-lose" }
  in
  let m = convict cfg "uniqueness" in
  Alcotest.(check int) "two-step counterexample" 2
    (List.length m.Explore.schedule)

let test_mutation_probe_out_of_range () =
  let cfg =
    { Explore.default_renaming with mutation = Some "probe-out-of-range" }
  in
  ignore (convict cfg "namespace bound")

let test_mutation_spin () =
  let cfg = { Explore.default_renaming with mutation = Some "spin" } in
  ignore (convict cfg "lock-freedom")

(* ------------------------------------------------------------------ *)
(* Linearizability checker *)

let op pid kind name inv resp = { Linz.pid; kind; name; inv; resp }

let test_linz_sequential () =
  let h =
    [
      op 0 Linz.Acquire 0 0 1;
      op 0 Linz.Release 0 2 3;
      op 1 Linz.Acquire 0 4 5;
    ]
  in
  Alcotest.(check bool) "sequential history linearizable" true
    (Linz.explain ~bound:2 h = None)

let test_linz_overlap_ok () =
  (* p1's acquire overlaps p0's release: linearizable by ordering the
     release first *)
  let h =
    [
      op 0 Linz.Acquire 0 0 1;
      op 0 Linz.Release 0 2 8;
      op 1 Linz.Acquire 0 3 9;
    ]
  in
  Alcotest.(check bool) "overlap resolved" true (Linz.explain ~bound:2 h = None)

let test_linz_double_hold () =
  (* both processes complete acquires of name 0 with no release: no
     legal order exists *)
  let h = [ op 0 Linz.Acquire 0 0 1; op 1 Linz.Acquire 0 2 3 ] in
  match Linz.explain ~bound:2 h with
  | Some msg ->
    Alcotest.(check bool) "explanation dumps the history" true
      (contains msg "not linearizable" && contains msg "acq")
  | None -> Alcotest.fail "double-hold history accepted"

let test_linz_bound () =
  (* a name outside [0, bound) is never grantable *)
  let h = [ op 0 Linz.Acquire 5 0 1 ] in
  Alcotest.(check bool) "out-of-bound name rejected" true
    (Linz.explain ~bound:2 h <> None)

(* ------------------------------------------------------------------ *)
(* Lease protocol model *)

let lease_cfg mutation =
  { Service.Lease_model.clients = 2; names = 1; acquires = 2; ticks = 2; mutation }

let test_lease_clean () =
  let o = Explore.explore (Worlds.lease_world (lease_cfg None)) in
  Alcotest.(check bool) "complete" true o.Explore.stats.complete;
  Alcotest.(check bool) "no violation" true (o.Explore.violation = None);
  Alcotest.(check int) "schedule count pinned" 55860 o.Explore.stats.schedules

let lease_convict mutation expect =
  let w = Worlds.lease_world (lease_cfg (Some mutation)) in
  match (Explore.explore w).Explore.violation with
  | None -> Alcotest.failf "lease mutation %s not convicted" mutation
  | Some v ->
    Alcotest.(check bool)
      (Printf.sprintf "message mentions %s" expect)
      true
      (contains v.Explore.message expect);
    Explore.minimize w v

let test_lease_stale_release () =
  let m = lease_convict "stale-release" "stale release" in
  Alcotest.(check int) "five-step counterexample" 5
    (List.length m.Explore.schedule)

let test_lease_restore_expired () = ignore (lease_convict "restore-expired" "dead token")

(* ------------------------------------------------------------------ *)
(* Fixture pipeline: canonical bytes, round-trip, audits, replay *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fixture_roundtrip () =
  let cfg =
    { Explore.default_renaming with crashes = 0; mutation = Some "claim-on-lose" }
  in
  let w = world_of cfg in
  let v =
    match (Explore.explore w).Explore.violation with
    | Some v -> Explore.minimize w v
    | None -> Alcotest.fail "expected a violation"
  in
  let fx = Explore.renaming_fixture cfg v in
  let s = Explore.fixture_to_string fx in
  (match Explore.fixture_of_string s with
  | Ok fx' -> Alcotest.(check bool) "round-trips" true (fx = fx')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* canonical-form audit: internal perturbations are rejected
     (surrounding whitespace is tolerated — save_text appends a
     newline) *)
  (match Explore.audit_fixture (s ^ "\n") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "canonical fixture rejected: %s" e);
  let tampered = "{ " ^ String.sub s 1 (String.length s - 1) in
  match Explore.audit_fixture tampered with
  | Error e ->
    Alcotest.(check bool) "tamper detected" true (contains e "canonical")
  | Ok _ -> Alcotest.fail "tampered fixture accepted"

let test_committed_fixtures_replay () =
  List.iter
    (fun file ->
      match Worlds.judge_fixture (read_file file) with
      | Ok (fx, v) ->
        Alcotest.(check string)
          (file ^ " reproduces its recorded violation")
          fx.Explore.fx_violation v.Explore.message;
        Alcotest.(check bool)
          (file ^ " carries a mutation") true
          (fx.Explore.fx_mutation <> None)
      | Error `Clean -> Alcotest.failf "%s: schedule replays clean" file
      | Error (`Invalid e) -> Alcotest.failf "%s: %s" file e)
    [
      "fixtures/modelcheck_claim_on_lose.cex.json";
      "fixtures/modelcheck_lease_stale_release.cex.json";
    ]

let test_orphan_fixture_detected () =
  let source = read_file "fixtures/modelcheck_claim_on_lose.cex.json" in
  let fx =
    match Explore.fixture_of_string source with
    | Ok fx -> fx
    | Error e -> Alcotest.failf "fixture unreadable: %s" e
  in
  match Worlds.world_of_fixture { fx with Explore.fx_model = "gone" } with
  | Error e -> Alcotest.(check bool) "names the model" true (contains e "gone")
  | Ok _ -> Alcotest.fail "unknown model dispatched"

(* `modelcheck --out DIR` creates a missing DIR (parents included)
   instead of dying on the fixture write after the exploration. *)
let test_out_dir_created () =
  let root = Filename.temp_file "mc_out" "" in
  Sys.remove root;
  let dir = Filename.concat root "deeper" in
  let log = root ^ ".log" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; root; log ])))
    (fun () ->
      let rc =
        Sys.command
          (Filename.quote_command "../bin/repro_cli.exe" ~stdout:log
             [ "modelcheck"; "--model"; "rebatching"; "--mutation";
               "claim-on-lose"; "--crashes"; "0"; "--out"; dir ])
      in
      Alcotest.(check int) ("violation exits 1\n" ^ read_file log) 1 rc;
      let file = Filename.concat dir "modelcheck_rebatching_claim_on_lose.cex.json" in
      match Worlds.judge_fixture (read_file file) with
      | Ok (fx, v) ->
        Alcotest.(check string) "written fixture replays"
          fx.Explore.fx_violation v.Explore.message
      | Error `Clean -> Alcotest.fail "written fixture replays clean"
      | Error (`Invalid e) -> Alcotest.failf "written fixture: %s" e)

(* ------------------------------------------------------------------ *)
(* Cross-validation: sampled executions against the exhaustive space *)

(* Any outcome the sampling scheduler produces must be a terminal state
   of the exhaustive crash-free exploration with the same coin seed —
   the explorer drives the same Fast_core, so a miss would mean the
   step-granular hooks diverge from [run]. *)
let test_sampled_in_exhaustive_qcheck () =
  let prop (n, seed) =
    let cfg =
      {
        Explore.default_renaming with
        procs = n;
        seed;
        crashes = 0;
      }
    in
    let seen = Hashtbl.create 16 in
    let key names =
      String.concat ","
        (Array.to_list
           (Array.map
              (function None -> "-" | Some u -> string_of_int u)
              names))
    in
    let w =
      match Explore.renaming_world ~on_terminal:(fun ns -> Hashtbl.replace seen (key ns) ()) cfg with
      | Ok w -> w
      | Error e -> QCheck.Test.fail_reportf "renaming_world: %s" e
    in
    let o = Explore.explore w in
    if o.Explore.violation <> None then
      QCheck.Test.fail_reportf "unexpected violation in clean config";
    let inst = Renaming.Rebatching.make ~t0:cfg.Explore.t0 ~n () in
    let algo = Renaming.Rebatching.machine inst in
    let r = Sim.Fast_core.run_once ~seed ~n ~algo () in
    let k = key r.Sim.Runner.names in
    Hashtbl.mem seen k
    || QCheck.Test.fail_reportf
         "sampled outcome %s not among %d exhaustive terminals" k
         (Hashtbl.length seen)
  in
  let gen =
    QCheck.make
      ~print:(fun (n, s) -> Printf.sprintf "n=%d seed=%d" n s)
      QCheck.Gen.(pair (int_range 2 3) (int_range 1 1000))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"sampled outcome in exhaustive set" gen
       prop)

(* The two independent concurrency oracles must agree on clean configs:
   the exhaustive explorer (simulated substrate, all interleavings) and
   the vector-clock certifier (real domains, sampled schedules) both
   report rebatching clean at small n. *)
let test_hb_agrees_with_exhaustive_qcheck () =
  let prop seed =
    let cfg = { Explore.default_renaming with seed } in
    let exhaustive_clean =
      (Explore.explore (world_of cfg)).Explore.violation = None
    in
    let instance = Renaming.Rebatching.make ~t0:3 ~n:3 () in
    let hb_clean =
      match
        Analysis.Hb_runner.certify ~domains:2 ~seed ~procs:3
          ~capacity:(Renaming.Rebatching.size instance)
          ~algo:(fun env -> Renaming.Rebatching.get_name env instance)
          ()
      with
      | Ok o -> o.Analysis.Hb_runner.races = []
      | Error _ -> false
    in
    if exhaustive_clean <> hb_clean then
      QCheck.Test.fail_reportf "verdicts disagree: exhaustive=%b hb=%b"
        exhaustive_clean hb_clean;
    exhaustive_clean && hb_clean
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:4 ~name:"hb and exhaustive verdicts agree"
       QCheck.(make ~print:string_of_int Gen.(int_range 1 500))
       prop)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "modelcheck",
      [
        Alcotest.test_case "toy independent pruned" `Quick test_toy_independent;
        Alcotest.test_case "toy dependent kept" `Quick test_toy_dependent;
        Alcotest.test_case "rebatching n=3 clean" `Quick test_rebatching_clean;
        Alcotest.test_case "longlived n=2 clean" `Quick test_longlived_clean;
        Alcotest.test_case "sleep sets preserve outcomes" `Quick
          test_sleep_sets_preserve_outcomes;
        Alcotest.test_case "claim-on-lose convicted" `Quick
          test_mutation_claim_on_lose;
        Alcotest.test_case "probe-out-of-range convicted" `Quick
          test_mutation_probe_out_of_range;
        Alcotest.test_case "spin convicted" `Quick test_mutation_spin;
        Alcotest.test_case "linz sequential" `Quick test_linz_sequential;
        Alcotest.test_case "linz overlap ok" `Quick test_linz_overlap_ok;
        Alcotest.test_case "linz double hold" `Quick test_linz_double_hold;
        Alcotest.test_case "linz namespace bound" `Quick test_linz_bound;
        Alcotest.test_case "lease clean" `Quick test_lease_clean;
        Alcotest.test_case "lease stale-release convicted" `Quick
          test_lease_stale_release;
        Alcotest.test_case "lease restore-expired convicted" `Quick
          test_lease_restore_expired;
        Alcotest.test_case "fixture round-trip + canonical audit" `Quick
          test_fixture_roundtrip;
        Alcotest.test_case "committed fixtures replay" `Quick
          test_committed_fixtures_replay;
        Alcotest.test_case "orphan fixture detected" `Quick
          test_orphan_fixture_detected;
        Alcotest.test_case "--out creates a missing directory" `Quick
          test_out_dir_created;
        Alcotest.test_case "sampled in exhaustive (qcheck)" `Quick
          test_sampled_in_exhaustive_qcheck;
        Alcotest.test_case "hb agrees with exhaustive (qcheck)" `Quick
          test_hb_agrees_with_exhaustive_qcheck;
      ] );
  ]
