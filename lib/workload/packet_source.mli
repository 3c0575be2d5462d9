(** Pull-based packet streams, read through a cursor.

    Every workload in the repository can be expressed as a producer that
    writes the next packet on demand, so a 10M-packet run needs memory
    for one packet, not ten million.  A source owns one packet buffer —
    arrival time, ingress port and header ints — which its producer
    fills in place; nothing is allocated per packet on the way to the
    simulator's slab.

    {b The cursor contract.}  {!ready} fills the buffer with the next
    packet if it is empty and says whether there is one; it does not
    consume it, so the simulator can see the next arrival time without
    committing (what idle fast-forward needs).  {!time}, {!port} and
    {!headers} then read the buffered packet, and {!advance} consumes
    it.  The buffer's contents stay valid from the {!ready} that
    answered [true] until the next {!ready} after an {!advance}: the
    producer overwrites them on its next fill.  A reader that keeps a
    packet past that point copies it ({!next} does).  [headers] is read
    only; its length is the packet's header count.

    A source is single-pass: once the producer reports its end, {!ready}
    is [false] for good.  Sources built from in-memory arrays
    ({!of_array}) and from streaming producers over the same RNG draws
    produce byte-identical simulations — the differential test suite
    pins this. *)

exception Error of string
(** Raised by a producer on malformed mid-stream input (e.g. a bad line
    in a streamed trace file).  The message is positioned like
    {!Trace_io.of_string} errors; the CLI maps it to exit code 2. *)

type t

(** {2 Producers} *)

val of_array : Mp5_banzai.Machine.input array -> t
(** Adapter over a pre-built trace; [total_hint] is its length.  The
    buffer is each input's own header array, never copied. *)

val of_fill : ?total:int -> (t -> bool) -> t
(** [of_fill ?total fill] is a source whose producer [fill t] writes the
    next packet into [t] with {!set} and returns [true], or returns
    [false] at the end of the stream, after which it is not called
    again.  [total], when known, lets the simulator reserve
    duplicate-ghost sequence numbers exactly as the array path does. *)

val set : t -> time:int -> port:int -> n:int -> int array
(** Producer side: record the buffered packet's [time] and [port] and
    return its header buffer, of length [n], for the producer to fill.
    The same array comes back while [n] stays the same. *)

(** {2 The cursor} *)

val ready : t -> bool
(** Whether a packet is buffered, filling the buffer first if it is
    empty. *)

val time : t -> int
(** The buffered packet's arrival time; meaningful after {!ready}. *)

val port : t -> int
(** The buffered packet's ingress port. *)

val headers : t -> int array
(** The buffered packet's headers, the source's own buffer (see the
    cursor contract above). *)

val advance : t -> unit
(** Consume the buffered packet.
    @raise Invalid_argument when {!ready} has not buffered one. *)

val next : t -> Mp5_banzai.Machine.input option
(** {!ready}, a copy of the buffered packet, {!advance}: the allocating
    adapter for callers that keep packets. *)

val consumed : t -> int
(** Packets consumed so far — the streaming replacement for the array
    cursor, and the position recorded in checkpoints. *)

val total_hint : t -> int option

val last_time : t -> int
(** Arrival time of the most recently consumed packet (0 before any). *)

(** {2 Ingress sources}

    A fabric switch's source: a flat ring the driver pushes each
    inter-switch delivery into between lock-step cycles.  An empty ring
    means "nothing this cycle", never end-of-stream. *)

val ingress : ?consumed:int -> ?last_time:int -> unit -> t
(** An empty ingress source.  [consumed] and [last_time] (both default
    0) pre-position the cursor and the {!last_time} reading when
    rebuilding a node from a snapshot, so sequence numbers continue
    where the checkpointed run stopped and the node re-encodes the
    arrival time it was checkpointed with. *)

val push :
  t -> time:int -> port:int -> int array -> off:int -> mask:int -> n:int -> unit
(** [push t ~time ~port src ~off ~mask ~n] appends a packet whose [n]
    headers are [src.((off + j) land mask)]: pass a ring's mask to copy
    out of a ring, or [-1] for a plain array.
    @raise Invalid_argument on a source {!ingress} did not make. *)

val pending : t -> int
(** Packets pushed and not yet consumed, the buffered one included. *)

val iter_pending : t -> (Mp5_banzai.Machine.input -> unit) -> unit
(** The {!pending} packets in admission order, each as a fresh input —
    what a fabric snapshot needs to serialize a node's backlog. *)
