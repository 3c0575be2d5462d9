(** The logical per-stage FIFO of MP5 (§3.2).

    Physically, a stage input has [k] independent ring buffers (one per
    source pipeline) so that up to [k] packets can be enqueued in one clock
    cycle without contention.  Logically they behave as a single FIFO with
    three operations:

    - [push]: append a phantom (or, in baselines without phantoms, a data
      packet) to the ring of its source pipeline, timestamped; a full ring
      drops the packet.  A phantom push answers with the entry's
      {e position}, which the caller keeps with the packet.
    - [insert]: replace a queued phantom by its data packet, in place, at
      the position its push returned — no key is hashed or searched, as
      in the hardware; a miss (the phantom was dropped) drops the data
      packet.
    - [pop]: consider the heads of all [k] rings and choose the smallest
      timestamp.  A data head is dequeued and processed; a phantom head
      blocks the whole logical FIFO — that is how arrival order is
      enforced preemptively (D4).

    Timestamps are the packets' global arrival sequence numbers, so they
    are unique and [pop] is deterministic.

    Everything is an immediate int: keys and data payloads (the
    simulator's slab slots) must be non-negative, and each ring stores
    its entries as 4-int slots — timestamp, key, data, state word — in
    one flat [int array].  No operation on the packet path allocates.

    {2 Capacity}

    A ring's {e logical} capacity is what "full" means: a push into a
    full non-adaptive ring is dropped, and a full adaptive ring doubles
    its logical capacity instead.  It starts at the configured capacity
    and is what checkpoints record.  {e Physical} storage is separate and
    unobservable: a power of two of slots, grown 4x at a time whenever
    the live entries outgrow it.  Its initial size depends on the
    constructor: {!create} reserves 2x the configured capacity for
    adaptive rings (the configured capacity otherwise), {!create_small}
    one slot per ring. *)

type t

val create : k:int -> capacity:int -> adaptive:bool -> t
(** [adaptive] makes full rings grow instead of dropping — the paper's
    simulator mode for loss-free experiments.  [k] is limited to 64 so a
    queued entry's location packs into one immediate int. *)

val create_small : k:int -> capacity:int -> adaptive:bool -> t
(** Same queue as {!create}, observably identical, but each ring starts
    with one physical slot: for short-lived queues created in numbers
    that hold a few entries each, such as the ideal baseline's per-cell
    FIFOs. *)

(** {2 Positions}

    An entry's position is [(stable sequence number lsl 6) lor ring]: a
    non-negative immediate int that names the entry for as long as it is
    queued.  Storage growth does not move it (sequence numbers are
    logical).  A {e stale} position — its entry popped, or a cancelled
    entry purged — no longer lies in its ring's live range; one whose
    slot now holds another key fails the key check.  Either way
    {!insert_data} answers [`No_phantom] and {!cancel} does nothing,
    exactly as for a position that was never valid, such as [-1]. *)

val push_phantom : t -> ring:int -> ts:int -> key:int -> int
(** Enqueue a placeholder for packet [key] and return its position, or
    [-1] when the ring is full and the phantom is dropped. *)

val push_data : t -> ring:int -> ts:int -> key:int -> int -> [ `Ok | `Dropped ]
(** Enqueue a data packet directly (baselines without phantom ordering). *)

val insert_data : t -> pos:int -> key:int -> int -> [ `Ok | `No_phantom ]
(** MP5's [insert]: the data packet takes its phantom's place, the live
    phantom at [pos] whose key is [key].  [`No_phantom] when [pos] is
    stale or invalid, or its entry is data already or cancelled. *)

val cancel : t -> pos:int -> key:int -> unit
(** Mark the phantom at [pos] as cancelled (e.g. its data packet was
    dropped at an earlier stage) when it still holds [key]; cancelled
    entries are discarded for free when they reach a ring head.  No-op
    on a stale or invalid position. *)

(** {2 Popping}

    {!head} and {!take} answer with one int code:
    - [code >= 0]: the logical head is ready data, and [code] is its
      payload;
    - [code = empty] ([-1]): nothing is queued;
    - [code <= -2]: a phantom is in front — its data packet has not
      arrived — and [blocked_key code] ([-2 - code]) is its key. *)

val empty : int
val blocked_key : int -> int

val head : t -> int
(** The logical head after purging cancelled entries, as a code (see
    above); the FIFO is otherwise untouched. *)

val head_key : t -> int
(** The key of the logical head (data or phantom), or [-1] when empty. *)

val take : t -> int
(** {!head}, and when the head is ready data, dequeue it — one scan of
    the ring heads.  For the simulator's per-cycle pop phase. *)

val pop_data : t -> int
(** {!take} for a head known to be ready data.
    @raise Invalid_argument if the FIFO is empty or blocked. *)

val length : t -> int
(** Queued entries across all rings (including phantoms). *)

val data_length : t -> int
(** Queued *data* entries across all rings — the paper's §4.4 "maximum
    number of packets queued in any pipeline stage" counts packets, not
    placeholders. *)

val max_occupancy : t -> int
(** High-water mark of {!data_length}. *)

val iter_data : t -> (key:int -> int -> unit) -> unit
(** Apply [f] to every live (non-cancelled) data entry, ring by ring in
    ring order — deterministic, but {e not} logical (timestamp) order.
    For whole-queue sweeps: fault-injection spills and the runtime
    invariant monitor's conservation/affinity census. *)

val ring_data : t -> ring:int -> int -> int
(** [ring_data t ~ring i] is the payload of the ring's [i]th entry from
    its head when that entry is live (non-cancelled) data, else [-1]:
    {!iter_data}'s walk for [i] from 0 to [ring_length t ~ring - 1], without
    a closure, so a census that reads it allocates nothing.
    @raise Invalid_argument when [i] is not below {!ring_length}. *)

(** {2 Checkpointing} *)

val rings : t -> int
(** [k], the number of rings. *)

val ring_capacity : t -> ring:int -> int
(** Logical capacity of a ring (an adaptive ring's grows). *)

val ring_length : t -> ring:int -> int
(** Entries queued in the ring, phantoms and cancelled ones included. *)

val codec : Mp5_util.Codec.t -> t -> data:(int -> int) -> phantom:(int -> int -> unit) -> unit
(** The FIFO's part of a machine snapshot ({!Mp5_util.Codec}): its
    high-water mark, then per ring its logical capacity, its head's
    stable sequence number and its entries head to tail, written from
    [t] or read over every ring of [t] (same [k]), whatever it held.
    Ring storage grows to the entries read, never to a recorded
    capacity.  [data] writes a data entry's payload, or reads one, and
    returns it; on a decode, [phantom key pos] gets each live phantom's
    key and the position a push would have answered.  Rules: a capacity
    in [\[1, 2^60\]], no more entries than it, keys in [\[0, 2^60\]]. *)
