(** Banzai action units ("atoms", §2.1 of the paper).

    A stage contains stateless operations (pure header rewrites) and
    stateful atoms.  A stateful atom performs an atomic
    read-modify-write of one cell of one register array within a single
    stage, optionally guarded by a predicate, and may export the cell's
    old/new value into header fields — the general template of Figure 5. *)

type stateless_op = {
  dst : int;        (** destination field id *)
  rhs : Expr.t;     (** must not mention [State_val] *)
}

type output_source =
  | Old_value  (** cell value before the update (a register read) *)
  | New_value  (** cell value after the update *)

type stateful = {
  reg : int;                        (** register array id *)
  index : Expr.t;                   (** cell index; no [State_val] *)
  guard : Expr.t option;            (** access happens iff guard is truthy *)
  update : Expr.t option;           (** new cell value; [None] = read-only *)
  outputs : (int * output_source) list;  (** field id <- old/new value *)
}

val stateless_op : dst:int -> rhs:Expr.t -> stateless_op
(** Checked constructor: rejects [State_val] in [rhs]. *)

val stateful :
  reg:int ->
  index:Expr.t ->
  ?guard:Expr.t ->
  ?update:Expr.t ->
  ?outputs:(int * output_source) list ->
  unit ->
  stateful
(** Checked constructor: rejects [State_val] in [index] and [guard]. *)

val exec_stateless : tables:Table.t array -> fields:int array -> stateless_op -> unit
(** Applies the header rewrite in place. *)

type access_result = {
  accessed : bool;   (** guard evaluated truthy *)
  cell : int;        (** resolved cell index (clamped into the array) *)
  old_value : int;
  new_value : int;
}

val exec_stateful :
  tables:Table.t array -> fields:int array -> reg_array:int array -> stateful -> access_result
(** Evaluates the guard; when truthy performs the read-modify-write on
    [reg_array] and applies outputs to [fields].  Cell indices are reduced
    modulo the array size (hardware wraps the address bus), so every access
    is in range. *)

val exec_cell :
  tables:Table.t array -> fields:int array -> reg_array:int array -> stateful -> int
(** {!exec_stateful} without the result record: the accessed cell, or
    [-1] when the guard evaluated falsy (nothing was written).  What the
    golden machine and the interpreted kernels run per packet. *)

val resolve_index : tables:Table.t array -> fields:int array -> size:int -> stateful -> int
(** The cell the atom would touch for this header — the computation MP5's
    address-resolution stage performs preemptively. *)

val compile_stateless : tables:Table.t array -> stateless_op -> (Expr.frame -> unit)
(** Compile-once counterpart of {!exec_stateless}: the returned closure
    applies the header rewrite to the fields windowed by the frame,
    without touching the expression AST and without allocating.
    Bit-identical to [exec_stateless]. *)

val compile_stateful :
  tables:Table.t array -> stateful -> (Expr.frame -> int array -> int -> int)
(** Compile-once counterpart of {!exec_stateful}.
    [k frame reg_array cell_hint] performs the guarded read-modify-write
    and output writes exactly like [exec_stateful] and returns the
    accessed cell, or [-1] when the guard evaluated falsy (in which case
    nothing was written) — an int instead of an {!access_result} record
    so the per-packet path allocates nothing.  A non-negative [cell_hint]
    is taken as the already-resolved cell index, skipping the index
    recomputation: the simulator resolves every resolvable index at
    arrival (and steers the packet by that cell), so re-deriving it at
    execution time would redo the same hash.  Pass [-1] to compute the
    index from the current fields.  The returned closure carries the
    mutable cell-value ref the update expression reads through, so it
    must not be shared across domains; compile one kernel per simulator
    instance. *)

val pp_stateless : Format.formatter -> stateless_op -> unit
val pp_stateful : Format.formatter -> stateful -> unit
