(** The statement reader shared by the fault-plan ({!Fault}) and
    link-plan ({!Linkplan}) languages.

    {v
    plan      ::= statement { (newline | ";") statement }
    statement ::= keyword { word }        words split on spaces and tabs
    word      ::= "@" cycles | key "=" value
    cycles    ::= C | A ".." B            integers; a window is inclusive
    v}

    [#] starts a comment that runs to the end of its line, and blank
    statements are skipped.  A language gives each keyword its meaning
    and reads the statement's cycle spec and arguments through {!args}
    (then {!close}s them, so an argument it does not take is an error);
    every error, the reader's or the language's ({!fail}), comes out as
    ["line N: <message>"]. *)

type stmt = private { line : int; keyword : string; words : string list }
(** One non-blank statement: its 1-based line, its first word and the
    words after it. *)

val fail : stmt -> string -> 'a
(** Abandon the parse with ["line N: msg"]. *)

val parse : string -> init:'a -> ('a -> stmt -> 'a) -> ('a, string) result
(** Fold the statements of a plan text, in order.  A {!fail} in the
    step ends the fold with its message. *)

val load : path:string -> (string -> ('a, string) result) -> ('a, string) result
(** A parse of a file's contents; errors are prefixed with the path. *)

type args
(** A statement's words read as an optional cycle spec (the last one
    wins) and [key=value] arguments, each key at most once. *)

val args : stmt -> args
(** Fails on a word that is neither a cycle spec nor [key=value], and on
    a key given twice. *)

val at : args -> int
(** The cycle of an [@C] spec; fails on a window or no spec. *)

val span : args -> int * int
(** The window [(A, B)] of an [@A..B] spec, [(C, C)] for [@C]; fails
    when [A > B] or there is no spec. *)

val int : args -> string -> int
(** The integer argument [name=N]; fails when it is missing or not an
    integer. *)

val float : args -> string -> float
(** The number argument [name=X]. *)

val close : args -> unit
(** Fails on the first argument, in statement order, that neither {!int}
    nor {!float} has read: a key the keyword does not take.  A language
    calls it once the statement's meaning is built. *)

val pp_cycles : Format.formatter -> int * int -> unit
(** [@C] for [(C, C)], [@A..B] otherwise: the spec {!span} reads back. *)
