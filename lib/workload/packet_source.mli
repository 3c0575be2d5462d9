(** Pull-based packet streams.

    Every workload in the repository can be expressed as a generator that
    produces the next [Machine.input] on demand, so a 10M-packet run
    needs memory for one packet, not ten million.  The simulator drives a
    source with [peek] (to see the next arrival time without committing —
    what idle fast-forward needs) and [next] (to admit the packet).  A
    source is single-pass: once [next] returns [None] it stays exhausted.

    Sources built from in-memory arrays ({!of_array}) and from streaming
    generators over the same RNG draws produce byte-identical simulations
    — the differential test suite pins this. *)

exception Error of string
(** Raised by a pulling closure on malformed mid-stream input (e.g. a bad
    line in a streamed trace file).  The message is positioned like
    {!Trace_io.of_string} errors; the CLI maps it to exit code 2. *)

type t

val of_array : Mp5_banzai.Machine.input array -> t
(** Adapter over a pre-built trace; [total_hint] is its length. *)

val of_pull : ?total:int -> (unit -> Mp5_banzai.Machine.input option) -> t
(** [of_pull ?total gen] wraps a generator closure.  [gen] is pulled
    lazily, at most once past its end.  [total], when known, lets the
    simulator reserve duplicate-ghost sequence numbers exactly as the
    array path does. *)

val of_queue : ?consumed:int -> ?last_time:int -> Mp5_banzai.Machine.input Queue.t -> t
(** A live source over a refillable queue: an empty queue means "nothing
    this cycle", never end-of-stream, so [peek] does not latch
    exhaustion.  The fabric driver pushes each switch's inter-switch
    deliveries into its queue between lock-step cycles.  [consumed] and
    [last_time] (both default 0) pre-position the cursor and the
    {!last_time} reading when rebuilding a node from a snapshot, so
    sequence numbers continue where the checkpointed run stopped and the
    node re-encodes the arrival time it was checkpointed with. *)

val peek : t -> Mp5_banzai.Machine.input option
(** Next packet without consuming it. *)

val next : t -> Mp5_banzai.Machine.input option
(** Consume and return the next packet. *)

val consumed : t -> int
(** Packets handed out by [next] so far — the streaming replacement for
    the array cursor, and the position recorded in checkpoints. *)

val total_hint : t -> int option

val last_time : t -> int
(** Arrival time of the most recently consumed packet (0 before any). *)

val buffered : t -> int
(** Packets sitting in the one-slot lookahead (0 or 1): pulled from the
    backing store by [peek] but not yet consumed.  A queue-backed node's
    true backlog is [Queue.length q + buffered t]. *)

val lookahead : t -> Mp5_banzai.Machine.input option
(** The lookahead slot's content, without pulling — what a fabric
    snapshot needs to serialize a node's complete backlog. *)
