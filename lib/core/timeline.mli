(** Figure 3-style packet-processing timelines.

    Runs the simulator with an event trace ({!Mp5_obs.Trace}) and
    renders a table with one row per (pipeline, stage) and one column
    per cycle: the packet being processed in blue-in-the-paper position,
    with the queued packets behind it in brackets (lower-case letters
    mark phantom placeholders whose data packet has not arrived yet).
    Packet ids are lettered A, B, C ... in arrival order, like the
    paper's example.

    Each cycle is rebuilt from the trace as the FIFO pops see it: a
    stage entry fills the slot (and takes the packet off the queue it
    was popped from), a delivered phantom queues a placeholder, and a
    crossbar transfer fills its phantom's place or queues the data
    packet, ordered as the FIFO orders it (by packet id, or without D4
    by cycle of arrival at the stage); a drop removes the packet.  Two
    FIFO events leave no trace event, so the picture differs from the
    machine there: a phantom a full ring dropped is shown until its
    data packet is dropped, and without D4 a queued stateless packet
    (stateless priority off) is ordered as a stateful one would be. *)

type t = {
  cycles : int array;                       (** columns, in order *)
  rows : (int * int) array;                 (** (pipeline, stage) per row *)
  cells : string array array;               (** [row][column] rendered text *)
}

val capture :
  ?max_cycles:int ->
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  Sim.params ->
  Transform.t ->
  Mp5_banzai.Machine.input array ->
  t * Sim.result
(** Simulates and captures up to [max_cycles] columns (default 24):
    consecutive cycles from the first arrival, through the last exit or
    drop at most.  Stage 0 (address resolution) is omitted from the
    rows, matching the paper's figures.  [metrics] and [events] as in
    {!Sim.run} — a timeline and a run report come from the same
    simulation; the table is rebuilt from [events] (a fresh trace when
    omitted), so a trace that filters packets shows only those.
    @raise Invalid_argument when the run overflows the trace's
    capacity. *)

val render : t -> string
(** Plain-text table. *)

val letter : int -> string
(** 0 -> "A", 25 -> "Z", 26 -> "A1"... *)
