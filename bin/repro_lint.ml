(* repro_lint: the determinism linter, the repository's one lint entry
   point.  It is kept out of repro_cli and renamed because it is the only
   program that links the OCaml compiler frontend (compiler-libs). *)

open Cmdliner

let lint json root paths =
  Lint.run ~json ~root ~paths ~out:print_string ()

let exits =
  [
    Cmd.Exit.info 0 ~doc:"the tree is clean.";
    Cmd.Exit.info 1 ~doc:"violations were reported.";
    Cmd.Exit.info 2 ~doc:"usage, parse or internal error.";
  ]

let cmd =
  let doc = "AST-level determinism lint for the reproduction tree." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file with the compiler's own parser \
         (compiler-libs) and flags identifier uses that break \
         reproducibility: Stdlib.Random outside lib/prng, wall-clock \
         reads outside the timing layers, raw Domain.spawn outside the \
         runner/pool, Hashtbl iteration in result-producing code, \
         polymorphic compare in lib/stats, raw Unix writes in the serving \
         layer outside Service.Journal, and stray stdout prints.  One \
         structural rule, atomic-get-set, flags an Atomic.get followed by \
         Atomic.set of the same atomic inside one function in the \
         concurrent layers (lib/service, lib/shm) — a lost-update \
         window.  The rule table is lib/lint/lint_rules.ml.";
      `P
        "Silence a justified use with a `repro-lint: allow <rule-id>' \
         comment on the flagged line or the line above.";
    ]
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a versioned JSON report: {\"schema\":\"repro-lint/1\", \
             \"findings\":[...]}.")
  in
  let root_t =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Repository root; stripped from paths so rule scopes (lib/prng, \
             bin, ...) match.")
  in
  let paths_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint (default: bin lib examples bench \
             test under $(b,--root)).")
  in
  Cmd.v
    (Cmd.info "repro_lint" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(const lint $ json_t $ root_t $ paths_t)

let () = exit (Cmd.eval' cmd)
