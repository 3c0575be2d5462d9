(** The logical single-pipelined Banzai switch: the golden reference for
    functional equivalence (§2.2.1).

    Packets are processed one at a time, in arrival order (ties broken by
    the smaller port id, as the paper specifies), each traversing every
    stage of the configuration.  Besides the final register store and
    per-packet output headers, the machine records the per-cell state
    access *sequences* — the ground truth for condition C1 ("for each
    register state, the same set of input packets must access the state
    and in the same order"). *)

type input = {
  time : int;           (** arrival time, in packet slots *)
  port : int;
  headers : int array;  (** user-visible fields, length [n_user_fields] *)
}

val sort_trace : input array -> input array
(** Stable sort by (time, port): the pipeline entry order of §2.2.1. *)

type result = {
  store : Store.t;                       (** final register state *)
  headers_out : int array array;         (** per packet (in entry order), user fields *)
  access_seqs : (int * int, int list) Hashtbl.t;
      (** (reg, cell) -> packet ids in access order *)
}

val run : Config.t -> input array -> result
(** [run config trace] processes the (already sorted) trace.  It
    allocates, per packet, only what the result holds: each access is
    logged as a (cell slot, packet id) pair in an int vector reserved
    up front (cells get dense slots, in first-access order, through an
    {!Mp5_util.Int_table}), the packet's fields live in one scratch
    array reused across packets, and [access_seqs] is built once, at
    the end, in first-access order.  A hot cell costs linear, not
    quadratic, time over the trace.  The machine interprets the
    configuration's expression trees ([Atom.exec_cell],
    [Expr.eval_raw]) and never calls the compiled kernels, so it stays
    independent of the code it checks. *)

val access_table :
  size:int -> Mp5_util.Int_vec.t -> Mp5_util.Int_vec.t -> (int * int, int list) Hashtbl.t
(** [access_table ~size keys log] is the (reg, cell) -> ids table of an
    access log: [keys] holds each cell's packed key
    [(reg lsl 32) lor cell] at its slot, [log] the accesses as
    consecutive (slot, id) pairs in access order.  Cells are added in
    slot order to a [Hashtbl.create size] table, so its iteration order
    is fixed by [size] and the slot order. *)

val run_packet :
  Config.t -> Store.t -> fields:int array ->
  on_access:(reg:int -> cell:int -> unit) -> unit
(** Process a single packet's [fields] (full-width, user + metadata)
    through every stage against the live [Store.t], reporting each state
    access.  Shared by the golden machine and by baseline simulators that
    need reference semantics for one packet at a time. *)
