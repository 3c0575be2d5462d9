(** Deterministic non-cryptographic hashes.

    Data-plane programs index register arrays by a hash of packet header
    fields (e.g. the 5-tuple for flowlet switching).  Both the compiler's
    [hash(...)] builtin and the workload generators use these functions so
    that the golden reference and all simulators agree bit-for-bit. *)

val fnv1a : int list -> int
(** FNV-1a over the little-endian bytes of each integer; result is a
    non-negative 62-bit value. *)

val fnv1a1 : int -> int
(** [fnv1a1 x] is [fnv1a [x]] without allocating the list — the
    single-key fast path of the expression evaluator's [hash(...)]. *)

val fnv1a2 : int -> int -> int
(** [fnv1a2 x y] is [fnv1a [x; y]] without allocating the list — the
    two-key fast path of compiled [hash(...)] kernels. *)

val fnv1a_seeded : seed:int -> int list -> int
(** Like {!fnv1a} but mixed with [seed] first; gives independent hash
    functions for multi-hash sketches. *)

val combine : int -> int -> int
(** [combine a b] adds two 62-bit digests modulo 2{^62}: commutative and
    associative, so a fold of per-item digests with it does not depend
    on the order the items are visited in.  The result stays a
    non-negative 62-bit value. *)

(** {2 Streaming FNV-1a}

    The same hash as {!fnv1a}, as a mutable fold state, so callers can
    digest unbounded streams (the simulator's streaming run summaries)
    without materializing a list.  The state is the 64-bit FNV
    accumulator split into two 32-bit halves held as immediate ints:
    {!feed} allocates nothing, and checkpoints serialize the halves
    directly.  Feeding [xs] into a fresh state gives
    [value st = fnv1a_seeded ~seed:(List.hd xs) (List.tl xs)]. *)

type state = { mutable hi : int; mutable lo : int }
(** Upper and lower 32 bits of the accumulator. *)

val start : unit -> state
(** A fresh state at the FNV-1a 64-bit offset basis. *)

val reset : state -> unit
(** Back to the offset basis. *)

val feed : state -> int -> unit
(** Feed the 8 little-endian bytes of an int. *)

val value : state -> int
(** The non-negative 62-bit digest of everything fed so far (identical
    to what {!fnv1a} returns for the same byte stream). *)
