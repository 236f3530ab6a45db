(** Terms: variables or domain constants. *)

type t =
  | Var of string
  | Const of Paradb_relational.Value.t

val var : string -> t
val const : Paradb_relational.Value.t -> t
val int : int -> t
val str : string -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val is_var : t -> bool
val vars : t list -> string list

(** [apply binding t] replaces a variable by its bound value, if any. *)
val apply : (string -> Paradb_relational.Value.t option) -> t -> t

(** [value_to_syntax v] — [v] as a constant the parser reads back as
    [v]: integers bare, strings bare when they lex as a lowercase
    identifier and quoted otherwise.  The one constant printer: {!pp},
    hence [Cq.to_string] and [Cq.cache_key], and the fact-file writer
    all go through it. *)
val value_to_syntax : Paradb_relational.Value.t -> string

(** Source syntax: variables by name, constants by {!value_to_syntax}. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string
