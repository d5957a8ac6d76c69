(** Committed benchmark artifacts: one record of closures per kind.

    Every [bench/BENCH_*.json] baseline is a single JSON object whose
    ["kind"] field names its kind and whose ["schema"] field names the
    codec version.  A kind bundles everything the tree does with such a
    file, the same idiom as [Renaming.Machine.t] and
    [Harness.Experiment.t]: its canonical bytes, its decoder, its
    rendering, [doctor]'s one-line summary, the invariants one run must
    hold on its own ([audit]) and the gates relative to a committed
    baseline ([regress]).  This module owns the parts that are the same
    for every kind: reading a file and dispatching on its header, the
    numbered [<prefix><k>.json] save, the [check = audit @ regress]
    composition, and [doctor]'s audit of the numbered files of a
    directory ({!audit_dir}).

    The five kinds are {!Kernel_bench.kind} (["bench"]),
    {!Sweep.kind} (["bench-large"]), both numbered [BENCH_<k>.json],
    and [Service.Service_bench.kind] (["bench-service"]),
    [Service.Recovery_bench.kind] (["bench-service-recovery"]) and
    [Service.Overload_bench.kind] (["bench-service-overload"]), numbered
    [BENCH_SERVICE_<k>.json]. *)

type 'a kind = {
  name : string;  (** the JSON ["kind"] field *)
  schema : int;  (** the JSON ["schema"] field this build reads and writes *)
  prefix : string;  (** numbering: ["BENCH_"] or ["BENCH_SERVICE_"] *)
  encode : 'a -> string;  (** canonical bytes, trailing newline included *)
  decode : (string * Jsonu.t) list -> 'a;
      (** the fields of a document whose kind and schema already match;
          @raise Jsonu.Malformed on a missing or mistyped field *)
  render : 'a -> string;  (** human-readable report of one run *)
  summary : 'a -> string;  (** [doctor]'s one line *)
  audit : 'a -> string list;
      (** absolute invariants of one run; empty = healthy *)
  regress : threshold:float -> baseline:'a -> current:'a -> string list;
      (** gates of [current] relative to a committed [baseline] *)
}

type any = Any : 'a kind -> any  (** a kind of any payload, for dispatch *)

val line : name:string -> schema:int -> (string * Jsonu.t) list -> string
(** [{"kind":name,"schema":schema,...fields}] plus a newline: the
    one-line canonical layout of every kind except ["bench-large"]. *)

val finding : bool -> ('a, unit, string, string option) format4 -> 'a
(** [finding cond fmt ...] is [Some message] when [cond] holds, else
    [None]; audits are [List.filter_map Fun.id] over such lines. *)

val of_string : 'a kind -> string -> ('a, string) result
(** Decode a document, naming a wrong kind or schema in the error. *)

val load : 'a kind -> string -> ('a, string) result
(** Read and decode a file.  The descriptor is closed on every path; a
    missing, unreadable, truncated, wrong-kind or wrong-schema file is
    an [Error] naming the file. *)

val save : 'a kind -> dir:string -> 'a -> string
(** Write [encode a] to the first free [<dir>/<prefix><k>.json],
    [k = 0, 1, ...] (creating [dir]), and return the path.  Kinds with
    one prefix share one numbering, so index 0 stays the committed
    baseline while local runs accumulate beside it. *)

val check :
  'a kind -> threshold:float -> baseline:'a -> current:'a -> string list
(** [audit current @ regress ~threshold ~baseline ~current]: the
    [--check] verdict, empty = pass. *)

val audit_dir :
  any list ->
  string ->
  [ `Info of string | `Note of string | `Problem of string ] list
(** [doctor]'s lines for every [<prefix><k>.json] file of some kind in
    [kinds], in name order, each prefixed with the file name: its kind's
    summary when it decodes, and as problems an unreadable or truncated
    file, a [kind] not in [kinds], a kind filed under another kind's
    numbering prefix, a wrong schema or field, or an [audit] finding. *)
