(** Name resolution and static checking for Domino programs.

    Everything in Domino is an [int], so "typechecking" is name resolution
    plus structural rules: packet fields and registers must be declared,
    array registers must be indexed and scalar registers must not be,
    locals must be declared before use, and the packet parameter is the
    only struct in scope. *)

type env = {
  prog : Ast.program;
  fields : string array;                    (** user packet fields, in order *)
  field_index : (string, int) Hashtbl.t;    (** bare field name -> id *)
  regs : Mp5_banzai.Config.reg array;
  reg_index : (string, int) Hashtbl.t;
  tables : Mp5_banzai.Table.t array;        (** empty, for control-plane population *)
  table_index : (string, int) Hashtbl.t;
  locals : string list;                     (** declaration order *)
}

exception Error of string * Ast.loc

val check : Ast.program -> env
(** @raise Error on any violation, with a source location. *)
