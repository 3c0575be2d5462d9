(** Expression simplification.

    Semantics-preserving local rewrites (constant folding, algebraic
    identities, ternary collapsing, complementary-predicate chain
    elimination) applied to fixpoint.  The compiler's symbolic inlining
    and atom fusion generate expressions with dead ternary arms — e.g.
    fusing [if (c) r = a; else r = b;] yields
    [!c ? b : (c ? a : state)] whose [state] arm is unreachable — and
    simplification both shrinks them below the machine's expression
    budget and lets {!Taxonomy.classify} find the true template class.

    Every rewrite is exact under the 32-bit wrap-around / total-division
    semantics of {!Expr.eval}; the property suite checks the compiled
    pipeline against a reference interpreter over random programs, which
    exercises these rules end to end. *)

val expr : Expr.t -> Expr.t

val pred : Expr.t -> Expr.t
(** Like {!expr} plus truthiness-preserving rules ([x || !x] is [1],
    [x || x] is [x], ...), legal only where the result is tested for
    truth — atom guards. *)

val stateful : Atom.stateful -> Atom.stateful
