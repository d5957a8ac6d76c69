(* The shared JSON subset (see the interface for the design rationale).
   This code began life as Engine.Sink.Json and moved here so the chaos
   layer's plan/verdict artifacts parse with exactly the decoder the
   result store uses; booleans and arrays were added for those
   artifacts.  Anything outside the subset — or a line cut short by a
   crash — yields None from [parse]. *)

exception Malformed

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else if Float.is_nan x then Buffer.add_string b "\"nan\""
  else if x = Float.infinity then Buffer.add_string b "\"inf\""
  else if x = Float.neg_infinity then Buffer.add_string b "\"-inf\""
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let add_assoc b kvs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      escape_string b k;
      Buffer.add_char b ':';
      add_float b v)
    kvs;
  Buffer.add_char b '}'

let rec add_value b = function
  | Num f -> add_float b f
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> escape_string b s
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_value b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_string b k;
        Buffer.add_char b ':';
        add_value b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add_value b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding: recursive descent over the subset we emit *)

let parse_exn (s : string) : t =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos >= len then raise Malformed else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c = if peek () <> c then raise Malformed else advance () in
  let literal word =
    String.iter (fun c -> if peek () <> c then raise Malformed else advance ()) word
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > len then raise Malformed;
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> raise Malformed
          in
          (* Our encoder only emits \u00XX for control bytes. *)
          if code < 0x100 then Buffer.add_char b (Char.chr code)
          else raise Malformed;
          pos := !pos + 4
        | _ -> raise Malformed);
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then raise Malformed;
    let lexeme = String.sub s start (!pos - start) in
    (* Integer lexemes stay exact: a 62-bit SplitMix seed does not
       survive a round-trip through float. *)
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lexeme with
      | Some f -> Num f
      | None -> raise Malformed)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' -> parse_obj ()
    | '[' -> parse_arr ()
    | 't' -> literal "true"; Bool true
    | 'f' -> literal "false"; Bool false
    | _ -> parse_number ()
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      advance ();
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | ',' -> advance (); elements (v :: acc)
        | ']' -> advance (); List.rev (v :: acc)
        | _ -> raise Malformed
      in
      Arr (elements [])
    end
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ((k, v) :: acc)
        | '}' -> advance (); List.rev ((k, v) :: acc)
        | _ -> raise Malformed
      in
      Obj (members [])
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then raise Malformed;
  v

let parse s = match parse_exn s with v -> Some v | exception Malformed -> None

(* ------------------------------------------------------------------ *)
(* Field accessors *)

let str fields name =
  match List.assoc_opt name fields with
  | Some (Str s) -> s
  | _ -> raise Malformed

let num fields name =
  match List.assoc_opt name fields with
  | Some (Num f) -> f
  | Some (Int i) -> float_of_int i
  | Some (Str "nan") -> Float.nan
  | Some (Str "inf") -> Float.infinity
  | Some (Str "-inf") -> Float.neg_infinity
  | _ -> raise Malformed

(* Exact integer fields (indices, seeds).  A float lexeme that happens
   to be integral is accepted for robustness against schema-1 stores
   re-encoded by other tools, but our own encoder always emits the
   plain decimal form. *)
let int_ fields name =
  match List.assoc_opt name fields with
  | Some (Int i) -> i
  | Some (Num f) when Float.is_integer f && Float.abs f < 1e15 ->
    int_of_float f
  | _ -> raise Malformed

let int_opt fields name ~default =
  match List.assoc_opt name fields with
  | None -> default
  | Some _ -> int_ fields name

let bool_ fields name =
  match List.assoc_opt name fields with
  | Some (Bool v) -> v
  | _ -> raise Malformed

let arr fields name =
  match List.assoc_opt name fields with
  | Some (Arr vs) -> vs
  | _ -> raise Malformed

let obj = function Obj fields -> fields | _ -> raise Malformed

let assoc fields name =
  match List.assoc_opt name fields with
  | Some (Obj kvs) ->
    List.map
      (fun (k, v) ->
        match v with
        | Num f -> (k, f)
        | Int i -> (k, float_of_int i)
        | Str "nan" -> (k, Float.nan)
        | Str "inf" -> (k, Float.infinity)
        | Str "-inf" -> (k, Float.neg_infinity)
        | _ -> raise Malformed)
      kvs
  | _ -> raise Malformed
