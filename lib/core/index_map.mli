(** The index-to-pipeline map (D2), plus the per-index runtime counters
    used by dynamic state sharding (§3.4).

    For each register array of size N, MP5 allocates the full N-entry
    array in every pipeline, but each index is "active" in exactly one
    pipeline; this map tracks which.  The structure is replicated in every
    pipeline in hardware so arrival-time lookups never contend; here a
    single copy models it, with moves applied atomically between cycles.

    Per index, the runtime keeps a packet-access counter (16 bits in the
    paper, reset every remap period) and an in-flight counter (8 bits),
    incremented at address resolution and decremented once the packet has
    accessed the index; a cell is only moved when its in-flight counter
    is zero. *)

type t

val create :
  k:int ->
  reg:int ->
  size:int ->
  sharded:bool ->
  pinned_to:int ->
  init:[ `Round_robin | `Random of Mp5_util.Rng.t | `Blocked ] ->
  t
(** Compile-time placement: sharded arrays spread their indices across the
    [k] pipelines — [`Round_robin] interleaves, [`Random] scatters,
    [`Blocked] range-partitions (indices [0..n/k) on pipeline 0 and so
    on, the natural hardware layout); unsharded arrays put every index on
    [pinned_to]. *)

val k : t -> int
val size : t -> int
val sharded : t -> bool
val pipeline_of : t -> int -> int

val note_access : t -> int -> unit
(** Bump the access counter (at address resolution). *)

val incr_inflight : t -> int -> unit
val decr_inflight : t -> int -> unit
val inflight : t -> int -> int
val access_count : t -> int -> int

val per_pipeline_load : t -> int array
(** Aggregate access counters per pipeline under the current mapping. *)

val reset_counts : t -> unit
(** Zero the access counters (end of a remap period). *)

val move : t -> cell:int -> to_:int -> unit
(** Remap one index.  The caller is responsible for moving the register
    value between the pipelines' physical arrays. *)

val cells_of_pipeline : t -> int -> int list

(** {2 Checkpointing} *)

val w_state : Mp5_util.Binio.writer -> t -> unit
(** Serialize the mutable state: the per-cell pipeline assignment,
    access counters and in-flight counters, as three int arrays. *)

val r_state : Mp5_util.Binio.reader -> t -> unit
(** Overwrite the map's mutable state from {!w_state} output, read in
    place; the per-pipeline load aggregates are recomputed from the
    counters rather than deserialized.  Raises [Failure] when an array's
    length is not {!size}. *)
