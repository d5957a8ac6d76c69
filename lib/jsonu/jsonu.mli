(** The repository's shared JSON subset.

    One deliberately small, dependency-free encoder/decoder used by every
    store and artifact in the tree: the {!Engine.Sink} result store, the
    {!Engine.Fault} quarantine,
    the run manifest, and the {!Chaos} fault-plan / verdict artifacts.
    Sharing one decoder means `repro_cli doctor` audits every artifact with
    exactly the parser that wrote it.

    The subset: objects of strings, numbers, booleans, arrays and nested
    objects — no [null], no unicode escapes beyond [\u00XX] control bytes.
    Floats round-trip exactly ([%.17g]); integer lexemes stay exact OCaml
    ints (a 62-bit SplitMix seed does not survive a trip through float). *)

exception Malformed

type t =
  | Num of float
  | Int of int
      (** a numeric lexeme that is an exact OCaml int — kept separate from
          [Num] so 62-bit seeds survive the round-trip *)
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t option
(** [None] outside the subset (or on a line truncated by a crash). *)

(** {1 Encoding helpers} *)

val escape_string : Buffer.t -> string -> unit
val add_float : Buffer.t -> float -> unit

val add_assoc : Buffer.t -> (string * float) list -> unit
(** A flat string→number object. *)

val to_string : t -> string
(** Canonical encoding: object fields in list order, floats via
    {!add_float}, no whitespace.  [parse (to_string v)] re-reads [v]
    exactly, which is what makes recorded chaos plans replay
    byte-identically. *)

(** {1 Field accessors}

    All raise {!Malformed} on a missing or mistyped field. *)

val str : (string * t) list -> string -> string
val num : (string * t) list -> string -> float

val int_ : (string * t) list -> string -> int
(** Exact integer field (indices, seeds) — never routed through float. *)

val int_opt : (string * t) list -> string -> default:int -> int
val bool_ : (string * t) list -> string -> bool
val arr : (string * t) list -> string -> t list
val obj : t -> (string * t) list
val assoc : (string * t) list -> string -> (string * float) list
