(** Open-addressing hash table from int keys to int values.

    A replacement for [(int, int) Hashtbl.t] on simulator hot paths:
    linear probing over flat int arrays with backward-shift deletion, so
    [find]/[replace]/[remove] call no generic hash primitive and allocate
    nothing.  [min_int] is reserved as the empty-slot marker and cannot
    be used as a key. *)

type t

val create : unit -> t

val length : t -> int
(** Number of stored bindings. *)

val find : t -> int -> int
(** @raise Not_found when the key has no binding. *)

val mem : t -> int -> bool

val replace : t -> int -> int -> unit
(** Insert or overwrite.
    @raise Invalid_argument on the reserved key [min_int]. *)

val reserve : t -> int -> unit
(** [reserve t n] sizes the table so that [n] bindings in total fit
    without growing again. *)

val remove : t -> int -> unit
(** No-op when the key has no binding. *)
