(* Worker-slot allocation on real multicore shared memory.

   The scenario the paper's introduction motivates: threads arriving with
   large, sparse identifiers (here: hashes of request ids) need small
   dense slot numbers — to index per-worker arenas, connection pools,
   statistics slots — without locks and without knowing how many threads
   will show up.  That is adaptive loose renaming.

   We run FastAdaptiveReBatching over an array of OCaml atomics, spread
   across domains, then use the acquired slots to index a flat stats
   array with no further synchronization.

   Run with:  dune exec examples/slot_allocator.exe *)

let () =
  let workers = 64 in
  (* tuned batch-0 probe budget: the paper's Lemma-4.2 constant (53) is
     sized for union bounds, not for practice *)
  let space = Renaming.Object_space.create ~t0:3 () in
  (* Capacity covering objects R_1..R_16 is plenty for 64 workers. *)
  let capacity = Renaming.Object_space.ladder_capacity space in
  Printf.printf "slot allocator: %d workers, %d atomic TAS cells\n" workers
    capacity;

  let result =
    Shm.Domain_runner.run ~seed:7 ~procs:workers ~capacity
      ~algo:(fun env -> Renaming.Fast_adaptive_rebatching.get_name env space)
      ()
  in
  Printf.printf "domains used: %d, wall time: %.2f ms, total probes: %d\n"
    result.domains_used (result.wall_ns /. 1e6) result.total_probes;
  Printf.printf "all slots unique: %b, largest slot: %d (= %.1fx workers)\n"
    (Shm.Domain_runner.check_unique_names result)
    (Shm.Domain_runner.max_name result)
    (float_of_int (Shm.Domain_runner.max_name result) /. float_of_int workers);

  (* The slots are dense enough to index a small flat array — the point of
     loose renaming.  Simulate per-worker counters. *)
  let arena = Array.make (Shm.Domain_runner.max_name result + 1) 0 in
  Array.iteri
    (fun pid -> function
      | Some slot -> arena.(slot) <- arena.(slot) + result.probes.(pid)
      | None -> ())
    result.names;
  let used = Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 arena in
  Printf.printf "arena: %d cells, %d in use (every worker has a private cell)\n"
    (Array.length arena) used;

  (* Contrast: how big would the arena be without renaming, indexing by the
     workers' original sparse ids? *)
  let sparse_max =
    Array.to_seq result.names |> Seq.length |> fun n ->
    Hashtbl.hash (n + 17) land 0xFFFFFF
  in
  Printf.printf
    "without renaming, indexing by a 24-bit hash would need ~%d cells — the \
     renamed arena is %dx smaller\n"
    sparse_max
    (sparse_max / max 1 (Array.length arena))
