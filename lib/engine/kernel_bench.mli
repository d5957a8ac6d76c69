(** The kernel microbench artifact behind [repro_cli bench]: kind
    ["bench"], schema 1, numbered [BENCH_<k>.json] (the committed
    baseline is [bench/BENCH_0.json]).

    Each kernel times a hot loop (the timed suite is
    [bin/bench_kernels.ml]) and meters its minor-heap traffic, reporting
    ns/op and words/op.  The headline pairs run one algorithm on the
    fast and effects substrates, so the suite records the speedup the
    zero-allocation core delivers on the host.  words/op and speedup
    are gated; ns/op is machine noise and is recorded only. *)

type kernel = {
  name : string;
  n : int;  (** problem size: processes, or draws per run for PRNG kernels *)
  runs : int;
  ops : int;
  ns_per_op : float;
  words_per_op : float;  (** minor words allocated per op *)
}

type speedup = { pair : string; speedup : float }

type suite = {
  seed : int;
  scale : float;
  kernels : kernel list;
  speedups : speedup list;
}

val kind : suite Artifact.kind
(** [audit]: the kernels claimed allocation-free outright (the fast
    sides of the headline pairs and the flat PRNG bank) are present and
    allocate at most 0.01 words/op, and every measurement is finite.
    [regress]: each baseline kernel is present and allocates at most
    [max(0.25, threshold x baseline)] words/op above its baseline; each
    baseline speedup pair is present and reaches 5x or
    [(1 - threshold) x baseline]. *)
