(** Pretty-printing of Domino ASTs back to concrete syntax.

    [program] emits source that parses back to a structurally identical
    AST (the round-trip property tested in the suite) — used by the
    compiler CLI and by the fuzzer to report minimal counterexamples. *)

val program : Format.formatter -> Ast.program -> unit
