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

type access = { reg : int; cell : int; order : int }
(** One state access: [order] is the access's position in the cell's
    access sequence. *)

type result = {
  store : Store.t;                       (** final register state *)
  headers_out : int array array;         (** per packet (in entry order), user fields *)
  access_seqs : (int * int, int list) Hashtbl.t;
      (** (reg, cell) -> packet ids in access order *)
  packet_accesses : access list array;   (** per packet, in stage order *)
}

val run : Config.t -> input array -> result
(** [run config trace] processes the (already sorted) trace.  Per-access
    bookkeeping is O(1) amortised: each cell keeps an access counter, so
    [order] is a counter read and a hot cell costs linear, not quadratic,
    time over the trace.  The machine interprets the configuration's
    expression trees ([Atom.exec_*], [Expr.eval_raw]) and never calls the
    compiled kernels, so it stays independent of the code it checks. *)

val run_packet :
  Config.t -> Store.t -> fields:int array ->
  on_access:(reg:int -> cell:int -> unit) -> unit
(** Process a single packet's [fields] (full-width, user + metadata)
    through every stage against the live [Store.t], reporting each state
    access.  Shared by the golden machine and by baseline simulators that
    need reference semantics for one packet at a time. *)
