(** A compiled packet-processing program: the configuration loaded into a
    Banzai pipeline (and, replicated, into every MP5 pipeline — design
    principle D1, processing homogeneity).

    A configuration is also the compiler's PVSM intermediate representation
    (a "Pipelined Virtual Switch Machine" is just a pipeline with no
    resource limits, §3.3), so the PVSM-to-PVSM transformer and the code
    generator both operate on this type. *)

type reg = {
  reg_name : string;
  size : int;
  init : int array;   (** length [size] *)
}

type stage = {
  stateless : Atom.stateless_op list;
  atoms : Atom.stateful list;
}

type t = {
  fields : string array;
      (** All header fields; indices < [n_user_fields] are the user-visible
          packet headers, the rest are compiler metadata. *)
  n_user_fields : int;
  regs : reg array;
  tables : Table.t array;
      (** Match tables, shared by reference between the replicated
          pipelines — legitimate because table contents are frozen during
          the runtime (§2.2.1) and excluded from functional equivalence. *)
  stages : stage array;
}

val empty_stage : stage

val reg : name:string -> size:int -> ?init:int array -> unit -> reg
(** [init] defaults to all zeros; shorter inits are zero-padded. *)

val validate : t -> (unit, string) result
(** Structural well-formedness: field/register ids in range, register
    sizes positive, init lengths correct, no [State_val] leaks.  Every
    compiler pass output must validate. *)

val regs_of_stage : stage -> int list
(** Distinct register arrays accessed in a stage. *)

val stage_of_reg : t -> int -> int option
(** The stage where a register array lives, if it is accessed at all.
    Banzai state is local to one stage ("no state sharing across stages");
    [validate] enforces that each array appears in at most one stage. *)

val field_id : t -> string -> int option
val pp : Format.formatter -> t -> unit
