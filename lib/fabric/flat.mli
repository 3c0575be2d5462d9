(** Flat int storage for the fabric's inter-switch packet path.

    A packet between two switches is a handful of ints — its fabric
    metadata while a switch holds it, that plus its input while a link
    carries it — so the fabric keeps both in int arrays instead of one
    boxed record (and a queue cell, and a hashtable binding) per packet
    per hop.  Neither structure is thread-safe: a fabric belongs to one
    domain. *)

(** One link's packets in flight, FIFO: a growable ring of
    variable-length entries.  An entry is {!header_base} ints of
    per-packet state followed by its [nh] header fields:

    {v due aux fseq dst inject hops time port nh h0 .. h(nh-1) v}

    Entries are addressed by their absolute position (the ring indexes
    with [pos land mask]), so a position stays valid until its entry is
    popped, even across growth. *)
module Ring : sig
  type t

  (** {3 Field offsets, in layout order} *)

  val due : int
  (** Nominal arrival cycle at the link's far end. *)

  val aux : int
  (** Host-bound: the last hop's pipeline latency. *)

  val fseq : int
  (** Fabric-wide injection sequence. *)

  val dst : int
  (** Destination host. *)

  val inject : int
  (** Cycle injected at the source host. *)

  val hops : int
  (** Switches traversed so far. *)

  val time : int
  (** The packet input's arrival time. *)

  val port : int
  (** The packet input's ingress port. *)

  val nh : int
  (** Header count. *)

  val header_base : int
  (** Offset of the first header field. *)

  (** {3 Operations} *)

  val create : unit -> t
  (** An empty ring; the first push sizes it. *)

  val length : t -> int
  (** Entries in the ring. *)

  val is_empty : t -> bool

  val capacity : t -> int
  (** Ints allocated. *)

  val clear : t -> unit
  (** Drop every entry, keeping the storage. *)

  val push :
    t ->
    due:int ->
    aux:int ->
    fseq:int ->
    dst:int ->
    inject:int ->
    hops:int ->
    time:int ->
    port:int ->
    int array ->
    off:int ->
    n:int ->
    unit
  (** Append an entry whose headers are [src.(off) .. src.(off + n - 1)]
      (the last positional argument is [src]), growing the ring by
      doubling when it is full. *)

  val reserve : t -> nh:int -> int
  (** Append an entry of [nh] headers, every field but [nh] unset, and
      return its position for {!set}: how a decoder fills an entry in
      the order the fields are read. *)

  val set : t -> int -> int -> int -> unit
  (** [set t pos k v] writes field [k] of the entry at [pos]. *)

  val head : t -> int
  (** Position of the oldest entry; meaningless on an empty ring. *)

  val get : t -> int -> int -> int
  (** [get t pos k]: field [k] of the entry at [pos]; header [i] is field
      [header_base + i]. *)

  val words : t -> int array
  (** The backing array: field [k] of the entry at [pos] is
      [(words t).((pos + k) land mask t)], until the next push (which
      may grow it).  What a consumer with its own [(src, off, mask)]
      reader copies an entry's headers out of without a fresh array. *)

  val mask : t -> int
  (** The index mask {!words} is read with. *)

  val pop : t -> unit
  (** Drop the oldest entry.  The ring must not be empty. *)

  val iter : t -> (int -> unit) -> unit
  (** Each entry's position, oldest first. *)
end

(** Per-packet fabric metadata of the packets one switch holds, keyed by
    the switch's local seq.  Local seqs are dense and handed out in
    ascending order, and only the packets between the oldest one still
    held and the newest are live, so the table is a ring of fixed-size
    slots indexed by [seq land mask], covering the window
    [\[base, next)].  A removal that frees the window's oldest slot
    advances [base] past every free slot behind it (the window
    compacts); an add that the window cannot hold doubles the ring. *)
module Table : sig
  type t

  (** {3 Field offsets within a slot} *)

  val fseq : int
  (** Fabric-wide injection sequence. *)

  val dst : int
  (** Destination host, [>= 0]; a free slot holds [-1]. *)

  val inject : int
  (** Cycle injected at the source host. *)

  val hops : int
  (** Switches traversed so far. *)

  (** {3 Operations} *)

  val create : unit -> t
  (** An empty table; the first add sizes it. *)

  val length : t -> int
  (** Live entries. *)

  val capacity : t -> int
  (** Slots allocated: the widest window held without growing. *)

  val clear : t -> unit
  (** Drop every entry, keeping the storage. *)

  val reserve : t -> span:int -> unit
  (** Make room for a window of [span] seqs, so adds within it do not
      grow the table. *)

  val add : t -> int -> fseq:int -> dst:int -> inject:int -> hops:int -> unit
  (** [add t seq ...] records [seq]'s metadata.  [seq] must exceed every
      seq added before it, and [dst] must be [>= 0]. *)

  val find : t -> int -> int
  (** The slot of [seq] for {!get}/{!remove_slot}, or [-1] when [seq] is
      not live. *)

  val get : t -> int -> int -> int
  (** [get t slot k]: field [k] of the entry in [slot]. *)

  val remove_slot : t -> int -> unit
  (** Free a live slot returned by {!find}. *)

  val remove : t -> int -> unit
  (** Free [seq]'s slot if [seq] is live; otherwise do nothing. *)

  val iter : t -> (int -> int -> unit) -> unit
  (** [f seq slot] for every live entry, ascending seq. *)
end
