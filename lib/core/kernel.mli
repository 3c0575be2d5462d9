(** Compile-once execution kernels for the cycle-level simulator.

    [create ~compiled:true] lowers a transformed program into closed
    OCaml closures at [Sim] construction time: per-stage fused stateless
    kernels, per-access stateful kernels, and the arrival-time guard and
    index kernels of the address-resolution stage.  Constructor dispatch,
    operator dispatch, match-table bounds checks, guard shapes
    ([G_always]/[G_resolved]) and constant operands are all specialized
    away, so the per-cycle path never touches an [Expr.t] and allocates
    nothing per packet.

    [create ~compiled:false] produces the same closure signatures backed
    by the AST interpreter ([Expr.eval_raw]/[Atom.exec_*]).  The simulator
    always runs the compiled arm; the interpreter arm is the reference
    the kernel tests hold it bit-identical to, program by program. *)

type guard =
  | G_true                               (** [Transform.G_always] *)
  | G_pred of (Mp5_banzai.Expr.frame -> bool)
      (** resolvable guard over arrival headers *)
  | G_unknown                            (** [Transform.G_unresolved] *)

type index =
  | I_cell of (Mp5_banzai.Expr.frame -> int)
      (** resolvable index; the closure returns the cell already reduced
          into the register's range, exactly like [Sim]'s resolution *)
  | I_none  (** [Transform.I_unresolved] (pinned arrays) *)

type t = {
  stateless : (Mp5_banzai.Expr.frame -> unit) array;
      (** per stage: all stateless ops of the stage, fused *)
  exec : (Mp5_banzai.Expr.frame -> int array -> int -> int) array;
      (** per access id: [k frame reg_array cell_hint] performs the
          guarded read-modify-write and returns the cell, or [-1] when
          the guard was falsy.  A non-negative [cell_hint] is the cell
          already resolved at arrival, saving the index recomputation;
          the [~compiled:false] interpreter ignores it and recomputes
          (see {!Mp5_banzai.Atom.compile_stateful}) *)
  guard : guard array;  (** per access id, for address resolution *)
  index : index array;  (** per access id, for address resolution *)
}

val create : compiled:bool -> Transform.t -> t
