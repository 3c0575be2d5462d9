(** A fixed pool of OCaml 5 domains for embarrassingly parallel maps.

    The experiment harness averages many independent simulation runs; each
    run owns its seeded RNG, so runs can execute on any domain in any
    order without changing the numbers.  The pool provides deterministic
    [map_array]/[map_list]: results are returned in input order and any
    exception raised by [f] is re-raised in the caller (the one from the
    lowest input index wins when several tasks fail).  Parallelism lives
    only here, between runs: a single run, one switch or a whole fabric,
    always steps on the domain that started it.

    [create ~jobs:1] spawns no domains and runs every map inline, so a
    [--jobs 1] run is byte-for-byte the sequential code path.  The caller
    of a map participates in executing tasks, so a pool created with
    [~jobs:n] uses at most [n] domains' worth of CPU in total. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1], or
    [Invalid_argument]).  Workers idle on a condition variable between
    maps.  The pool registers an [at_exit] hook that shuts the workers
    down so the process can terminate cleanly. *)

val size : t -> int
(** The [jobs] the pool was created with. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f a] is [Array.map f a], computed by up to [size t]
    domains.  Result order matches input order.  If [f] raises on one or
    more elements, every other element still computes, all domains
    join, and then the exception from the smallest failing index is
    re-raised in the caller with its original backtrace. *)

val map_array_result :
  t -> ('a -> 'b) -> 'a array -> ('b, exn * Printexc.raw_backtrace) result array
(** Like {!map_array}, but failures surface in-band: element [i] is
    [Error (exn, backtrace)] when [f a.(i)] raised.  One poisoned input
    thus costs exactly its own slot — the experiment harness reports it
    as a per-task failure and keeps the rest of the batch. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List analogue of {!map_array}. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init t n f] is [Array.init n f] computed in parallel. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent; maps submitted
    after shutdown run inline on the caller. *)

val quiesce : t -> unit
(** Join the worker domains {e without} retiring the pool: the next
    parallel map respawns them lazily.

    Policy for timing code: an idle worker domain still participates in
    every stop-the-world minor-GC rendezvous, which inflates single-run
    micro-benchmarks by tens of percent.  A measurement section should
    therefore call [quiesce] first and simply keep using the same pool
    afterwards, instead of the old shutdown-and-recreate dance (or
    running the whole experiment pool-free).  Respawning on the next map
    costs one [Domain.spawn] per worker — noise for the batch workloads
    the pool exists for. *)
