(** Atom capability templates.

    Banzai models action units as atoms drawn from a fixed template family
    with bounded circuit depth (Sivaraman et al., "Packet Transactions").
    The code generator uses these limits to decide whether a PVSM stage is
    implementable by the machine; a program whose atoms exceed the machine
    template fails to compile, exactly like the real Domino compiler. *)

type limits = {
  max_expr_depth : int;       (** operator depth of any atom expression *)
  max_expr_size : int;        (** node count of any atom expression *)
  max_stateless_per_stage : int;
  max_atoms_per_stage : int;  (** stateful atoms per stage *)
  max_stages : int;
  allow_mul_div : bool;       (** whether the ALU has multiply/divide *)
  allow_hash : bool;
  allow_table : bool;         (** whether stages have match units *)
  template : Taxonomy.t;      (** richest stateful atom class available *)
}

val default : limits
(** A machine comparable to the paper's targets: 16 stages, pairs of
    atoms per stage, depth-6 expressions, multiply and hash available. *)

val check : limits -> Config.t -> (unit, string) result
(** Full machine-fit check, including the stage count. *)
