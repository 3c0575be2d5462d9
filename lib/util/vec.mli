(** Reusable growable buffer for allocation-free hot loops.

    The simulator refills one of these per stage every cycle; [clear] just
    resets the length, so after warm-up the cycle loop performs no
    allocation for transfer bookkeeping.  Note that [clear] keeps the
    backing array (and therefore the references it holds) alive until the
    slots are overwritten — fine for the simulator's small per-stage
    buffers, not a general-purpose container. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append, doubling the backing array when full. *)

val reserve : 'a t -> int -> 'a -> unit
(** [reserve t n x] makes room for [n] elements in total, so the next
    pushes up to that length do not reallocate; [x] fills the unused
    capacity. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of range. *)

val unsafe_get : 'a t -> int -> 'a
(** [get] without the range check — undefined behaviour out of range.
    For hot loops that have already established [0 <= i < length t]. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite an existing element.
    @raise Invalid_argument when out of range. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  Like {!clear}, the vacated slot
    keeps its reference alive until overwritten.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Reset the length to zero without shrinking the backing array. *)

val scrub : 'a t -> unit
(** [clear], then overwrite every backing slot with the first element, so
    the emptied vector pins at most one element against the GC.  Use for
    high-churn buffers of short-lived heap values: with plain [clear] the
    stale references in rarely-overwritten tail slots keep dead elements
    reachable across minor collections, and on multi-megapacket runs that
    steady promotion leak inflates the major heap without bound (the
    phantom-channel calendar was the observed case). *)

val iter : ('a -> unit) -> 'a t -> unit
(** In push order. *)

val iter_rev : ('a -> unit) -> 'a t -> unit
(** In reverse push order — matches the consing order of the [list]-based
    code this replaced, for bit-identical replay. *)

val to_list : 'a t -> 'a list
