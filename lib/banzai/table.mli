(** Match tables (§2.1): the first of Banzai's three stage components.

    A table matches a tuple of packet-derived key values against a list
    of prioritised ternary entries and yields an integer action id (the
    default action when nothing matches).  Tables are populated and
    updated from the control plane; per the paper's functional-
    equivalence assumptions (§2.2.1), all population happens before the
    runtime starts and the contents never change during it — which is why
    table state needs no ordering machinery and lookups can be evaluated
    preemptively in MP5's address-resolution stage (Figure 5 moves
    "table match evaluation" there). *)

type t

type entry = {
  key : (int * int) list;
      (** per key position, (value, mask): matches when
          [packet_key land mask = value land mask].  Length must equal
          the table's arity.  An all-zero mask is a wildcard. *)
  priority : int;   (** higher wins *)
  action : int;
}

val create : name:string -> arity:int -> ?default_action:int -> unit -> t
(** An empty table; [default_action] defaults to 0. *)

val arity : t -> int
val size : t -> int

(** {2 Control plane} *)

val add : t -> entry -> unit
(** @raise Invalid_argument if the entry's key arity is wrong. *)

val add_exact : t -> key:int list -> ?priority:int -> action:int -> unit -> t
(** Convenience: full-width masks.  Returns the table for chaining. *)

(** {2 Data plane} *)

val lookup : t -> int list -> int
(** [lookup t keys] is the action of the highest-priority matching entry
    (ties broken by insertion order, oldest first), or the default
    action.
    @raise Invalid_argument on arity mismatch. *)

val lookup_keys : t -> int array -> int
(** {!lookup} of the keys in an array, allocating nothing; the same
    result and the same [Invalid_argument].  The array is only read. *)

val pp : Format.formatter -> t -> unit
