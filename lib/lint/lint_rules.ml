(* The declarative rule table behind `repro_lint`.

   Each rule bans a set of identifier paths in part of the tree.  Paths
   in [banned] are matched against the fully-qualified identifier as it
   appears in the source, with a leading [Stdlib.] stripped; an entry
   ending in '.' matches every identifier under that module prefix.

   Scoping is by repository-relative path prefix: [applies_to] limits a
   rule to part of the tree ([] = everywhere), [allowed] carves out
   exemptions.  A single expression can also be exempted in place with a
   comment on the same or the preceding line:

     (* repro-lint: allow <rule-id> — justification *)

   which is the required form for one-off exceptions: the justification
   lives next to the code it excuses. *)

type rule = {
  id : string;
  doc : string;  (** what the rule protects — shown with every finding *)
  banned : string list;
  applies_to : string list;
  allowed : string list;
}

let all =
  [
    {
      id = "stdlib-random";
      doc =
        "all randomness must flow through lib/prng seed trees; \
         Stdlib.Random has hidden global state, so results would depend \
         on scheduling and --jobs";
      banned = [ "Random." ];
      applies_to = [];
      allowed = [ "lib/prng/" ];
    };
    {
      id = "wall-clock";
      doc =
        "wall-clock reads make records differ run to run; only timing \
         infrastructure (progress, shm measurement, benches) and \
         operator-facing CLI/test timing may consult the clock";
      banned = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ];
      applies_to = [];
      allowed =
        [
          "lib/engine/progress.ml";
          "lib/shm/";
          "bench/";
          (* bin/: elapsed-time prints for the operator; never enters a
             result record.  test/: timeout and latency tests must read
             the clock. *)
          "bin/";
          "test/";
          (* The serving layer measures real latency and schedules real
             timeouts; its clock reads are the product, and nothing it
             records feeds deterministic experiment results. *)
          "lib/service/";
        ];
    };
    {
      id = "domain-spawn";
      doc =
        "domains may only be created by the audited substrates \
         (lib/shm, the engine pool); ad-hoc spawns bypass the \
         happens-before instrumentation";
      banned = [ "Domain.spawn" ];
      applies_to = [];
      (* service/server.ml: [Server.spawn] runs the serving loop on a
         domain of its own for in-process embedding; [Server.join]
         joins it.  The loop itself spawns nothing. *)
      allowed = [ "lib/shm/"; "lib/engine/pool.ml"; "lib/service/server.ml" ];
    };
    {
      id = "hashtbl-iteration";
      doc =
        "Hashtbl.iter/fold order depends on hashing internals and can \
         leak into output; collect via Hashtbl.to_seq and sort, or keep \
         an explicit insertion-order list";
      banned = [ "Hashtbl.iter"; "Hashtbl.fold" ];
      applies_to = [ "lib/"; "bin/" ];
      allowed = [];
    };
    {
      id = "poly-compare";
      doc =
        "polymorphic compare on float-carrying values orders nan \
         inconsistently with IEEE and breaks silently on abstract \
         types; use Float.compare (or a typed comparator)";
      banned = [ "compare" ];
      applies_to = [ "lib/stats/" ];
      allowed = [];
    };
    {
      id = "journal-write";
      doc =
        "the crash journal's durability contract (CRC framing, one \
         guarded write per record, fsync before acknowledge) lives in \
         Service.Journal; raw Unix writes in the serving layer risk \
         bypassing it on a journal fd — route durable bytes through \
         Journal.append";
      banned =
        [
          "Unix.write";
          "Unix.single_write";
          "Unix.write_substring";
          "Unix.single_write_substring";
        ];
      applies_to = [ "lib/service/"; "bin/renamed.ml" ];
      (* journal.ml is the sanctioned implementation; socket/self-pipe
         writes elsewhere carry inline allow comments naming the fd. *)
      allowed = [ "lib/service/journal.ml" ];
    };
    {
      id = "atomic-get-set";
      doc =
        "an Atomic.get followed by Atomic.set of the same atomic inside \
         one function is a read-modify-write window that loses updates \
         under concurrency; use Atomic.compare_and_set or \
         Atomic.fetch_and_add, or mark genuinely single-writer code \
         with an inline allow comment naming the writer";
      (* structural rule: matched by the get->set pass in Lint, not by
         identifier; [banned] stays empty so the ident pass skips it *)
      banned = [];
      applies_to = [ "lib/service/"; "lib/shm/" ];
      allowed = [];
    };
    {
      id = "stdout-print";
      doc =
        "stdout is the CLI's result channel; library code printing to \
         it corrupts tables and reports — return strings or take a \
         sink, as Harness.Table does";
      banned =
        [
          "print_string";
          "print_endline";
          "print_newline";
          "print_char";
          "print_int";
          "print_float";
          "Printf.printf";
          "Format.printf";
          "Format.print_string";
          "Format.print_newline";
        ];
      applies_to = [];
      allowed = [ "bin/"; "lib/harness/table.ml"; "test/"; "examples/"; "bench/" ];
    };
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all

(* [path] uses '/' separators and no leading "./" (Lint normalizes). *)
let path_has_prefix ~prefix path =
  String.equal prefix path
  || (String.length path > String.length prefix
     && String.sub path 0 (String.length prefix) = prefix
     && (prefix.[String.length prefix - 1] = '/'
        || path.[String.length prefix] = '/'))

let applies rule ~path =
  (match rule.applies_to with
  | [] -> true
  | prefixes -> List.exists (fun p -> path_has_prefix ~prefix:p path) prefixes)
  && not (List.exists (fun p -> path_has_prefix ~prefix:p path) rule.allowed)

let matches_ident rule ident =
  List.exists
    (fun banned ->
      if banned <> "" && banned.[String.length banned - 1] = '.' then
        String.length ident > String.length banned
        && String.sub ident 0 (String.length banned) = banned
      else String.equal banned ident)
    rule.banned
