(* AST-level determinism lint.

   Sources are parsed with the compiler's own parser (compiler-libs), so
   anything that compiles is linted exactly as the compiler sees it —
   no regexes, no false hits inside strings or comments.  An
   Ast_iterator walks every expression; each [Pexp_ident] whose
   flattened path trips a rule in {!Lint_rules.all} (respecting the
   rule's path scope and inline allow comments) becomes a finding.

   Known limitation, by design: the lint is purely syntactic, so
   aliasing a module ([module R = Random]) or [open]ing it and using
   bare names escapes detection.  The tree does not do this for the
   banned modules, and review catches new aliases; the lint's job is to
   make the common, accidental violation loud. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  ident : string;
  doc : string;
}

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* ------------------------------------------------------------------ *)
(* Identifier normalization *)

(* Longident.flatten raises on functor applications; handle them as
   "no path" (a functor application cannot name a banned value). *)
let rec flatten_lident = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (p, s) -> (
    match flatten_lident p with Some l -> Some (l @ [ s ]) | None -> None)
  | Longident.Lapply _ -> None

let normalize_ident txt =
  match flatten_lident txt with
  | None -> None
  | Some parts ->
    let parts = match parts with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p in
    Some (String.concat "." parts)

(* ------------------------------------------------------------------ *)
(* Inline allow comments *)

let allow_marker rule_id = "repro-lint: allow " ^ rule_id

(* The marker exempts the line it is on and the line below it, so both
   trailing comments and a comment line above the expression work. *)
let allowed_by_comment ~lines ~line rule_id =
  let marker = rule_id |> allow_marker in
  let has l =
    l >= 1
    && l <= Array.length lines
    &&
    let s = lines.(l - 1) in
    let mlen = String.length marker and slen = String.length s in
    let rec scan i =
      i + mlen <= slen && (String.sub s i mlen = marker || scan (i + 1))
    in
    scan 0
  in
  has line || has (line - 1)

(* ------------------------------------------------------------------ *)
(* Structural rule: atomic-get-set *)

(* No single identifier to ban here: the hazard is an [Atomic.get a]
   preceding an [Atomic.set a _] on the {e same} atomic within one
   function body (innermost [fun] scope) — a read-modify-write window
   that loses concurrent updates.  Atomics are keyed by the printed AST
   of the argument expression, so [t.flag] matches [t.flag] while
   [cells.(i)] and [cells.(j)] stay distinct; a get captured in an inner
   closure does not pair with a set in the enclosing function. *)

let atomic_get_set_id = "atomic-get-set"

let atomic_op = function
  | Parsetree.Pexp_apply
      ( { Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ },
        (Asttypes.Nolabel, arg) :: _ ) -> (
    match normalize_ident txt with
    | Some (("Atomic.get" | "Atomic.set") as op) ->
      Some (op, Format.asprintf "%a" Pprintast.expression arg)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Single-source lint *)

let lint_source ~path ~source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception e ->
    let msg =
      match Location.error_of_exn e with
      | Some (`Ok report) ->
        Format.asprintf "%a" Location.print_report report
      | _ -> Printexc.to_string e
    in
    Error msg
  | ast ->
    let lines = String.split_on_char '\n' source |> Array.of_list in
    let findings = ref [] in
    let check_ident txt (loc : Location.t) =
      match normalize_ident txt with
      | None -> ()
      | Some ident ->
        List.iter
          (fun rule ->
            if
              Lint_rules.applies rule ~path
              && Lint_rules.matches_ident rule ident
            then begin
              let line = loc.Location.loc_start.Lexing.pos_lnum in
              let col =
                loc.Location.loc_start.Lexing.pos_cnum
                - loc.Location.loc_start.Lexing.pos_bol
              in
              if not (allowed_by_comment ~lines ~line rule.Lint_rules.id) then
                findings :=
                  {
                    file = path;
                    line;
                    col;
                    rule = rule.Lint_rules.id;
                    ident;
                    doc = rule.Lint_rules.doc;
                  }
                  :: !findings
            end)
          Lint_rules.all
    in
    (* atomic-get-set scope machinery: a stack of per-function entry
       lists; [analyze] runs when a scope closes *)
    let ags_rule =
      match Lint_rules.find atomic_get_set_id with
      | Some r when Lint_rules.applies r ~path -> Some r
      | _ -> None
    in
    let ags_scopes : (string * string * Location.t) list ref list ref =
      ref [ ref [] ]
    in
    let ags_note op key loc =
      match !ags_scopes with
      | scope :: _ -> scope := (op, key, loc) :: !scope
      | [] -> ()
    in
    let ags_analyze entries =
      match ags_rule with
      | None -> ()
      | Some rule ->
        let first_get = Hashtbl.create 4 in
        List.iter
          (fun (op, key, (loc : Location.t)) ->
            if op = "Atomic.get" then
              let pos = loc.Location.loc_start.Lexing.pos_cnum in
              match Hashtbl.find_opt first_get key with
              | Some p when p <= pos -> ()
              | _ -> Hashtbl.replace first_get key pos)
          entries;
        List.iter
          (fun (op, key, (loc : Location.t)) ->
            if op = "Atomic.set" then
              (* the set's apply node spans the whole call, so a get
                 nested in its argument — the classic
                 [Atomic.set a (f (Atomic.get a))] — starts before the
                 set's end; a get that only follows the set does not *)
              match Hashtbl.find_opt first_get key with
              | Some gpos when gpos < loc.Location.loc_end.Lexing.pos_cnum
                ->
                let line = loc.Location.loc_start.Lexing.pos_lnum in
                let col =
                  loc.Location.loc_start.Lexing.pos_cnum
                  - loc.Location.loc_start.Lexing.pos_bol
                in
                if not (allowed_by_comment ~lines ~line rule.Lint_rules.id)
                then
                  findings :=
                    {
                      file = path;
                      line;
                      col;
                      rule = rule.Lint_rules.id;
                      ident = "Atomic.set " ^ key;
                      doc = rule.Lint_rules.doc;
                    }
                    :: !findings
              | _ -> ())
          entries
    in
    let open Ast_iterator in
    let iterator =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt; loc } -> check_ident txt loc
            | _ -> ());
            (if ags_rule <> None then
               match atomic_op e.Parsetree.pexp_desc with
               | Some (op, key) -> ags_note op key e.Parsetree.pexp_loc
               | None -> ());
            match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
              ags_scopes := ref [] :: !ags_scopes;
              default_iterator.expr self e;
              (match !ags_scopes with
              | scope :: rest ->
                ags_scopes := rest;
                ags_analyze (List.rev !scope)
              | [] -> ())
            | _ -> default_iterator.expr self e);
      }
    in
    iterator.structure iterator ast;
    (match !ags_scopes with
    | [ root ] -> ags_analyze (List.rev !root)
    | _ -> ());
    Ok (List.sort compare_findings !findings)

(* ------------------------------------------------------------------ *)
(* Tree walking *)

let default_roots = [ "bin"; "lib"; "examples"; "bench"; "test" ]

let rec collect_ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "" || entry.[0] = '.' || entry.[0] = '_' then []
           else collect_ml_files (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* Repo-relative normalization so rule scopes match however the file
   was named on the command line. *)
let normalize_path ~root path =
  let strip_dot p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      String.sub p 2 (String.length p - 2)
    else p
  in
  let path = strip_dot path in
  let root = strip_dot root in
  if root = "" || root = "." then path
  else
    let rooted = if Filename.check_suffix root "/" then root else root ^ "/" in
    if
      String.length path > String.length rooted
      && String.sub path 0 (String.length rooted) = rooted
    then String.sub path (String.length rooted) (String.length path - String.length rooted)
    else path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_paths ~root ~paths =
  let files = List.concat_map collect_ml_files paths in
  List.fold_left
    (fun (findings, errors) file ->
      let rel = normalize_path ~root file in
      match lint_source ~path:rel ~source:(read_file file) with
      | Ok f -> (findings @ f, errors)
      | Error msg -> (findings, errors @ [ (rel, msg) ])
      | exception Sys_error msg -> (findings, errors @ [ (rel, msg) ]))
    ([], []) files

(* ------------------------------------------------------------------ *)
(* Reporting *)

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s — %s" f.file f.line f.col f.rule f.ident
    f.doc

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Version tag for the --json report, so downstream consumers can detect
   format changes; bump on any incompatible reshape. *)
let json_schema = "repro-lint/1"

let findings_to_json findings =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":\"%s\",\n \"findings\":[" json_schema);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\
            \"ident\":\"%s\",\"doc\":\"%s\"}"
           (json_escape f.file) f.line f.col (json_escape f.rule)
           (json_escape f.ident) (json_escape f.doc)))
    findings;
  if findings <> [] then Buffer.add_string b "\n ";
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* CLI driver behind bin/repro_lint.
   Exit codes: 0 clean, 1 findings, 2 usage/internal error. *)

let run ?(json = false) ~root ~paths ~out () =
  let paths =
    match paths with
    | [] ->
      List.filter Sys.file_exists
        (List.map (Filename.concat root) default_roots)
    | paths -> paths
  in
  match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some missing ->
    out (Printf.sprintf "repro_lint: no such file or directory: %s\n" missing);
    2
  | None when paths = [] ->
    out "repro_lint: nothing to lint (no default roots found)\n";
    2
  | None ->
    let findings, errors = lint_paths ~root ~paths in
    if errors <> [] then begin
      List.iter
        (fun (file, msg) -> out (Printf.sprintf "%s: parse error: %s\n" file msg))
        errors;
      2
    end
    else if json then begin
      out (findings_to_json findings);
      if findings = [] then 0 else 1
    end
    else if findings = [] then begin
      out "repro_lint: clean\n";
      0
    end
    else begin
      List.iter (fun f -> out (finding_to_string f ^ "\n")) findings;
      out
        (Printf.sprintf "repro_lint: %d violation(s) of %d rule(s)\n"
           (List.length findings)
           (List.length
              (List.sort_uniq String.compare
                 (List.map (fun f -> f.rule) findings))));
      1
    end
