(* Aggregated test runner for the loose-renaming reproduction. *)

let () =
  Alcotest.run "loose_renaming"
    (Test_prng.suite @ Test_stats.suite @ Test_sim.suite @ Test_rebatching.suite
   @ Test_adaptive.suite @ Test_baselines.suite @ Test_lowerbound.suite
   @ Test_longlived.suite @ Test_shm.suite @ Test_harness.suite
   @ Test_schedules.suite @ Test_verification.suite @ Test_gof.suite
   @ Test_rwtas.suite @ Test_engine.suite @ Test_sweep.suite @ Test_fault.suite
   @ Test_analysis.suite @ Test_chaos.suite @ Test_fast_core.suite
   @ Test_machines.suite
   @ Test_modelcheck.suite @ Test_service.suite @ Test_survive.suite
   @ Test_overload.suite @ Test_artifact.suite @ Test_doctor.suite)
