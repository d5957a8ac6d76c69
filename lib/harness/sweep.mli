(** Parameter sweeps and seeded repetition.

    Conventions shared by all experiments: problem sizes grow
    geometrically; each measurement is repeated over [trials] consecutive
    seeds derived from the experiment's base seed, so rerunning with the
    same CLI arguments reproduces the table bit for bit. *)

val geometric_sizes : lo:int -> hi:int -> factor:int -> int list
(** [geometric_sizes ~lo ~hi ~factor] is [lo; lo*factor; ...] up to and
    including the last value [<= hi].  @raise Invalid_argument unless
    [1 <= lo], [lo <= hi] and [factor >= 2]. *)

val scaled : float -> int -> int
(** [scaled scale n] is [max 1 (round (scale * n))] — how experiments
    apply the CLI [--scale] knob to their default sizes. *)

val over_seeds : seed:int -> trials:int -> (int -> float) -> Stats.Summary.t
(** [over_seeds ~seed ~trials f] runs [f] on seeds
    [seed, seed+1, ..., seed+trials-1] and summarizes the results.
    @raise Invalid_argument if [trials < 1]. *)

val collect_seeds : seed:int -> trials:int -> (int -> 'a) -> 'a list
(** Like {!over_seeds} but keeps the raw values. *)

val fit_lines :
  models:Stats.Regression.model list ->
  sizes:float array ->
  values:float array ->
  string list
(** One human-readable line per model: name, slope, intercept, R^2 —
    appended below the growth tables so the claimed complexity shape can
    be read off directly. *)

val sequential :
  tag:string -> Substrate.spec -> seed:int -> n:int -> Sim.Runner.result
(** One shuffled sequential execution of [spec] on [n] processes, run
    on the fast core.
    @raise Failure ["<tag>: uniqueness violated"] if two processes end
    with the same name. *)
