(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    xoshiro256** seeded via splitmix64, which is fast, passes BigCrush, and
    is trivially portable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val state : t -> int64 array
(** The four xoshiro256** state words, for checkpointing.  Always length
    4; {!of_state} on the result reproduces the generator exactly. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state} output.  Raises [Invalid_argument]
    unless given exactly 4 words. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (trace generator, sharding, ...) its own
    stream so adding draws in one place does not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
