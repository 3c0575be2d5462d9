(** Reusable growable buffer.

    [clear] just resets the length, so a refilled buffer stops
    allocating after warm-up.  Note that [clear] keeps the backing array
    (and therefore the references it holds) alive until the slots are
    overwritten, and every store of a heap value goes through the write
    barrier: int buffers on hot paths use {!Int_vec} instead. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append, doubling the backing array when full. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of range. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  Like {!clear}, the vacated slot
    keeps its reference alive until overwritten.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Reset the length to zero without shrinking the backing array. *)
