(** Register state of a switch: one mutable int array per register array
    declared in the configuration. *)

type t

val create : Config.t -> t
(** Fresh store holding each array's initial values. *)

val get : t -> reg:int -> idx:int -> int
val set : t -> reg:int -> idx:int -> int -> unit
val array : t -> reg:int -> int array
(** The live backing array for a register (shared, mutable). *)

val copy : t -> t
val equal : t -> t -> bool

val diff : t -> t -> (int * int * int * int) list
(** [diff a b] lists [(reg, idx, a_value, b_value)] for every cell where
    the stores disagree — the functional-equivalence counterexamples. *)
