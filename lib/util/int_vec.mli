(** Growable int buffer for allocation-free hot loops.

    {!Vec} specialised to [int]: the backing store is an [int array], so
    a store is a plain write with no [caml_modify] barrier, and a cleared
    buffer keeps nothing reachable.  The simulator's per-stage transfer
    buffers and streaming digest state live in these. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> int -> unit
(** Append, doubling the backing array when full. *)

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] elements in total. *)

val get : t -> int -> int
(** @raise Invalid_argument when out of range. *)

val unsafe_get : t -> int -> int
(** [get] without the range check — undefined behaviour out of range. *)

val set : t -> int -> int -> unit
(** Overwrite an existing element.
    @raise Invalid_argument when out of range. *)

val sub : t -> int -> int -> int array
(** [sub t off len] copies elements [off .. off+len-1] out.
    @raise Invalid_argument when the range is not within the length. *)

val clear : t -> unit
(** Reset the length to zero, keeping the backing array. *)
