(** Cycle-level simulator for the MP5 multi-pipeline architecture (§3.2,
    §3.4) and its ablated baselines.

    The machine model: [k] architecturally identical pipelines, each a
    copy of the transformed configuration; a crossbar between consecutive
    stages (D3); a separate phantom channel (D4, Invariant 1); per-stage
    logical FIFOs made of [k] ring buffers; replicated index-to-pipeline
    maps with access/in-flight counters; and the dynamic sharding
    heuristic run every [remap_period] cycles (D2).

    Time advances in pipeline clock cycles.  Each (stage, pipeline)
    processes at most one packet per cycle.  The corresponding logical
    single-pipeline switch runs [k] times faster, so line rate for
    minimum-size packets is [k] packets per cycle here; traces encode
    arrival times in these cycles, several packets per time step.

    One cycle, in order: phantom deliveries; application of last cycle's
    crossbar transfers (data packets entering a stage they access
    [insert] over their phantom; stateless passers-through occupy stage
    slots with priority — Invariant 2); arrivals into the
    address-resolution stage; FIFO pops where no stateless packet claimed
    the slot (a phantom at the logical head blocks — that is D4's order
    enforcement); stage execution; crossbar steering decisions; and, on
    period boundaries, the sharding remap. *)

type mode =
  | Mp5           (** full design: D1 + D2 + D3 + D4 *)
  | Static_shard  (** no dynamic re-sharding (D2 ablation) *)
  | No_d4         (** no phantom ordering: FIFO order = arrival at stage *)
  | Naive_single  (** all state and all packets on pipeline 0 (§3.1 D1 naive) *)
  | Ideal         (** §4.3.3 baseline: per-cell queues (no head-of-line
                      blocking) and LPT re-packing (no heuristic loss) *)

type params = {
  k : int;                          (** number of pipelines *)
  mode : mode;
  fifo_capacity : int;              (** entries per ring buffer (paper: 8) *)
  adaptive_fifos : bool;            (** grow instead of drop (§4.3.1) *)
  remap_period : int;               (** cycles between remaps (paper: 100); 0 disables *)
  shard_init : [ `Round_robin | `Random of int | `Blocked ];
      (** compile-time placement of sharded register indices *)
  remap_noise_gate : bool;
      (** idle the Figure 6 heuristic while imbalance is within sampling
          noise (default on; off = paper-verbatim heuristic) *)
  stateless_priority : bool;        (** Invariant 2 (ablation knob) *)
  starvation_threshold : int option;(** drop stateless packets in favour of
                                        stateful ones queued longer than this *)
  ecn_threshold : int option;       (** mark data packets queued behind more
                                        than this many packets *)
}

val default_params : k:int -> params
(** MP5 mode, capacity 8, adaptive, period 100, round-robin placement,
    stateless priority on, no starvation guard, no ECN. *)

type digests = {
  dg_exits : int;
      (** folds (packet id, latency, user headers) in exit order *)
  dg_access : int;
      (** per-(reg, cell) access-order digests, combined commutatively
          ({!Mp5_util.Hashing.combine}) *)
}
(** Order-sensitive FNV-1a condensation of the per-packet observables;
    [dg_access] condenses the per-cell access order MP5 must preserve.
    Every run computes them online.  Two runs with equal digests (and
    equal stores and counters) are bit-identical as far as any
    {!result}-level check can tell. *)

type result = {
  delivered : int;
  dropped : int;
  dropped_stateless : int;          (** victims of the starvation guard *)
  marked : int;                     (** ECN-marked deliveries *)
  cycles : int;
      (** first arrival to last exit; 0 when no packet exits *)
  input_span : int;
  normalized_throughput : float;    (** output rate / input rate, capped at 1 *)
  max_queue : int;                  (** max data packets queued in any stage *)
  store : Mp5_banzai.Store.t;       (** merged final register state *)
  digests : digests;                (** the run's digests, as a streamed run reports them *)
  headers_out : (int * int array) list;  (** (packet id, user headers), exit order *)
  access_seqs : (int * int, int list) Hashtbl.t;
      (** (reg, cell) -> packet ids in actual access order *)
  exit_order : int list;            (** packet ids in exit order *)
  latencies : (int * int) list;     (** (packet id, cycles in switch), exit order *)
}
(** The {!summary} fields plus the per-packet lists that [digests]
    condenses. *)

(** {2 The cycle loop}

    One cycle function runs every cycle of every run, fabric nodes
    included: phantom delivery, crossbar transfer, admission, FIFO pop,
    stage execution and movement, as separate phases.  That phase
    split makes it the differential oracle the tests hold everything
    else to.  Each phase reads what it needs once instead of per
    packet, and every instrument, fault and starvation-guard site costs
    one branch when detached.

    A profiler ({!Mp5_obs.Prof}) records one span per phase; a
    detached one costs one branch per span site. *)

type loop =
  | Auto
  | Generic
  | Fast
(** Accepted, no effect: there is one cycle loop.  The constructors
    remain so callers that name a variant keep compiling. *)

val run :
  ?loop:loop ->
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  ?fault:Mp5_fault.Fault.plan ->
  ?monitor:Mp5_fault.Monitor.t ->
  ?prof:Mp5_obs.Prof.t ->
  params ->
  Transform.t ->
  Mp5_banzai.Machine.input array ->
  result
(** [run params program trace] simulates the (sorted) trace to completion:
    all packets either delivered or dropped.  [loop] is accepted, no
    effect.

    [run] is {!run_source} over the array plus two pure-observer
    collectors on the per-packet exit and access hooks, which record
    the result's lists.  The collectors push into flat int vectors
    reserved up front (exits to the trace length, header words
    included; accesses to each of the program's accesses once per
    packet) and build the lists once, after the run, so the collectors
    allocate nothing per packet while it lasts: no per-exit array is
    kept alive, and promoted, across the run.

    [metrics] accumulates per-cycle counters (utilization, stall
    attribution, crossbar traffic, phantom accounting, latency and
    occupancy histograms) into the caller's [Mp5_obs.Metrics.t], which
    must be sized [stages x k] to match the program and params
    (@raise Invalid_argument otherwise).  [events] records a structured
    packet-event trace into the caller's ring ({!Mp5_obs.Trace}).  Both
    are pure observers: the simulated machine never reads them, so the
    [result] is bit-identical with instrumentation on or off, and a
    disabled instrument costs one branch per site.

    [fault] attaches a deterministic fault plan ({!Mp5_fault.Fault}):
    pipelines going down and recovering (with FIFO spill, crossbar drop
    of in-transit packets and — in the dynamic modes — mass evacuation
    of resident cells at the next remap boundary), per-stage stall
    windows, probabilistic crossbar transfer drop/duplication, FIFO
    slot loss, and phantom-delivery delay.  An empty plan attaches
    nothing; without a plan the fault hooks cost one branch per site
    and results are bit-identical to an unfaulted build
    (@raise Invalid_argument when the plan fails validation;
    @raise Failure when a plan takes down the last live pipeline).

    [prof] attaches the wall-clock span profiler ({!Mp5_obs.Prof}):
    monotonic-clock spans per cycle phase, accumulated entirely outside the simulated machine — the
    same pure-observer discipline as [metrics], so results are
    bit-identical with profiling off, sampled, or full.  Unlike
    [metrics], snapshots do
    not carry profiler state (wall time is host-specific), so a
    resumed leg simply continues accumulating into the caller's
    profiler.

    [monitor] re-derives runtime invariants from live machine state
    every epoch (the [~epoch] of {!Mp5_fault.Monitor.create}) — packet
    conservation, D2 flow affinity, FIFO occupancy bounds, and (when
    [metrics] is also passed) phantom conservation and the
    cycle-classification total —
    raising {!Mp5_fault.Monitor.Violation} with a diagnostic snapshot
    when one fails (or counting silently for a non-fail-fast monitor).

    The stage programs are lowered to closed closure kernels once, at
    construction time (see {!Kernel}), so the per-cycle path walks no
    expression ASTs and — together with the packet arena — allocates
    nothing in steady state.  The kernels are held to the AST
    interpreter at the {!Kernel} boundary, and every run to the golden
    Banzai machine, by the test suite. *)

val results_equal : result -> result -> bool
(** Exact equality of every observable field of two results — stores,
    digests, headers, access sequences, exit order, latencies, and all
    counters.  The check behind the instrumentation and resume
    bit-identical guarantees. *)

(** {2 Streaming runs}

    Every run is a streaming run: the machine pulls packets one at a
    time from a {!Mp5_workload.Packet_source.t} and folds every
    per-packet observable into running {!type-digests}, so its memory
    stays bounded by machine state, not run length.  {!run_source}
    returns just that.  {!run} is the same run over an array, with the
    per-packet lists recorded alongside; their memory grows with the
    trace, which makes [run] the wrong tool for gigapacket workloads. *)

type summary = {
  s_delivered : int;
  s_dropped : int;
  s_dropped_stateless : int;
  s_marked : int;
  s_cycles : int;
  s_input_span : int;
  s_normalized_throughput : float;
  s_max_queue : int;
  s_packets : int;                  (** packets consumed from the source *)
  s_store : Mp5_banzai.Store.t;
  s_digests : digests;
}
(** What every run reports: the aggregate fields and the digests,
    without the unbounded per-packet lists of {!result}.  [s_cycles] is
    0 when no packet exits. *)

type outcome =
  | Completed of summary
  | Suspended of string
      (** the run hit [cycle_budget]; the payload is a snapshot (byte
          string, magic ["mp5-snap/1"]) accepted by {!resume} *)

type resume_error =
  | Corrupt of string   (** snapshot damaged; positioned ["byte N: ..."] message *)
  | Mismatch of string  (** well-formed snapshot inconsistent with this
                            program, source, or instrumentation *)

val snapshot_magic : string
(** The snapshot schema id (["mp5-snap/1"]) — the [magic] to pass
    {!Mp5_util.Binio} when validating snapshot files without decoding
    them (e.g. picking the newest valid slot of a rotation chain). *)

val run_source :
  ?loop:loop ->
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  ?fault:Mp5_fault.Fault.plan ->
  ?monitor:Mp5_fault.Monitor.t ->
  ?prof:Mp5_obs.Prof.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(cycle:int -> string -> unit) ->
  ?heartbeat_every:int ->
  ?on_heartbeat:(cycle:int -> unit) ->
  ?stop:bool ref ->
  ?cycle_budget:int ->
  params ->
  Transform.t ->
  Mp5_workload.Packet_source.t ->
  outcome
(** [run_source params program source] drains the source to completion
    (or until [cycle_budget] simulated cycles have run, yielding
    [Suspended snapshot]).  {!run} is this function over the array
    plus collectors, so a streamed run and an array run over the same
    packets produce equal counters, stores, and digests.  [loop] is
    accepted, no effect.

    [checkpoint_every] (positive; @raise Invalid_argument otherwise)
    calls [on_checkpoint ~cycle snapshot] every N visited cycles with a
    serialized snapshot of the complete machine state: register stores,
    per-stage FIFO rings and in-flight packets, phantom-channel
    schedule, sharding maps, fault-plan RNG cursors, metrics counters,
    and the streaming digests.  Snapshots are self-validating (length,
    checksum, program digest) and versioned (["mp5-snap/1"]).

    [on_heartbeat ~cycle] is a liveness beat for an external watchdog,
    called every [heartbeat_every] (default 1; positive, @raise
    Invalid_argument otherwise) visited cycles, after any checkpoint
    emitted at the same cycle.  Like the other hooks it is a pure
    observer: results are bit-identical with or without it.

    [stop] is the graceful-shutdown flag: when it becomes [true] (e.g.
    from a SIGINT/SIGTERM handler), the run pauses at the next cycle
    boundary and returns [Suspended snapshot] exactly as an exhausted
    [cycle_budget] would — the caller flushes the snapshot and the run
    is resumable, not lost.

    The source must be fresh (nothing consumed;
    @raise Invalid_argument otherwise) and non-empty. *)

val resume :
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  ?monitor:Mp5_fault.Monitor.t ->
  ?prof:Mp5_obs.Prof.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(cycle:int -> string -> unit) ->
  ?heartbeat_every:int ->
  ?on_heartbeat:(cycle:int -> unit) ->
  ?stop:bool ref ->
  ?cycle_budget:int ->
  snapshot:string ->
  Transform.t ->
  Mp5_workload.Packet_source.t ->
  (outcome, resume_error) Stdlib.result
(** [resume ~snapshot program source] restores the machine from a
    snapshot produced by {!run_source}/{!resume} and continues the run;
    the continuation is bit-identical to the uninterrupted run — same
    final store, counters, and digests.

    The snapshot embeds its fault plan, so there is no [?fault]
    parameter.  [?metrics] must be passed iff the snapshot was taken
    with metrics, sized to the snapshot's machine ([Error (Mismatch _)]
    otherwise); restored
    counters continue accumulating in the caller's [Metrics.t].  A
    cadence that is not positive raises [Invalid_argument], as in {!run_source}.

    The source must either be positioned exactly at the snapshot's
    cursor (in-process chunked runs) or fresh — a fresh source has its
    consumed prefix replayed and checked against the snapshot's input
    digest, so resuming against the wrong trace is detected rather than
    silently diverging.

    Damaged input — bad magic, truncated payload, checksum or framing
    failure — returns [Error (Corrupt msg)] with a byte-positioned
    message; a well-formed snapshot for a different program, source, or
    instrumentation returns [Error (Mismatch msg)].  Every field has a
    stated rule ({!Mp5_util.Codec}; the section functions in sim.ml
    state them, DESIGN.md "Checkpoint boundary" lists them), and a
    field that breaks it is a [Corrupt] positioned at the field, so a
    decode never raises, nor sizes memory from a forged value.

    In-process resume ({!Leg.parking}): handed the very string a
    suspension returned, for the same program (physically), [resume]
    decodes into the suspended machine, with this call's instruments,
    instead of building one; only that string, at most once, and a
    failed resume parks nothing.  The outcome is the same either way.

    Each resume runs [Gc.full_major] first: the longrun experiment tops
    at 1.21 MB at 100k and 1M packets with it, and at 1.55, 1.72 and
    2.1 MB at 100k, 1M and 10M without it (OCaml 5.1 does not compact). *)

val summary_of_result : packets:int -> result -> summary
(** Project a {!result} onto a {!summary} ([packets] is the trace
    length, which [result] does not record).  A field projection: the
    digests are the ones the run computed, nothing is rehashed. *)

val summary_equal : summary -> summary -> bool
(** Exact equality, including stores and digests. *)

(** {2 Fabric node stepping}

    One switch inside a multi-switch fabric ([lib/fabric]): a streaming
    sim fed by a live queue source, advanced one lock-step cycle at a
    time by the fabric driver.  A switch run alone steps through
    {!node_step} too, so a one-switch fabric fed the same packets at the
    same cycles is bit-identical to {!run}.  The leg loop ({!Leg.run})
    drives the whole fabric, because a switch may only idle when the
    whole fabric is quiet.  The [on_exit]/[on_drop] hooks are pure
    observers fired at the two sites where a packet leaves the machine;
    the driver uses them to route packets onward and to keep
    fabric-wide conservation accounting. *)

type node

val node_create :
  anchor:int ->
  on_exit:(seq:int -> latency:int -> fields:int array -> off:int -> unit) ->
  on_drop:(seq:int -> unit) ->
  params ->
  Transform.t ->
  node
(** [anchor] is the fabric start cycle (the first host arrival), shared
    by every node so remap boundaries align fabric-wide — and match a
    plain {!run} over the same trace.  [on_drop] receives the local seq
    of each packet the machine drops.

    [on_exit] receives each exiting packet's local seq and pipeline
    latency, and its user header fields in place: they are
    [fields.(off) .. fields.(off + n - 1)], [n] the program's
    [n_user_fields].  [fields] is the machine's packet slab, not a copy:
    the window is valid only during the call (the packet's slot is
    recycled right after), and the hook must neither write it nor keep
    it.  A hook that needs the headers later copies them out. *)

val node_inject : node -> Mp5_banzai.Machine.input -> int
(** Queue one packet for admission and return the local sequence number
    it will carry (its 0-based position in the node's push stream) — the
    key the driver uses to track per-packet fabric metadata across
    [on_exit]/[on_drop].  The input's [time] must be at or before the
    next cycle to be stepped, or admission stalls. *)

val node_next_seq : node -> int
(** The local seq the next {!node_inject} will return: the packets the
    node has admitted plus its {!node_backlog}.  Every in-flight packet's
    seq is below the admitted count. *)

val node_step : node -> now:int -> unit
(** Run one full machine cycle at cycle [now], then the remap boundary
    if one falls at [now].  The driver must call this with strictly
    increasing [now] and must itself visit every cycle
    {!node_next_event} names (nodes never skip cycles on their own). *)

val node_in_flight : node -> int
(** Packets inside the machine (admitted, not yet exited or dropped). *)

val node_machine_seqs : node -> int array
(** The local seqs of the {!node_in_flight} packets, ascending (a fresh
    array of that length): with the {!node_backlog} packets, exactly the
    seqs a fabric holds per-packet state for, which its snapshot decoder
    checks that state's keys against.  The machine frame's seqs are not
    checked on restore: a forged one may be negative (read as [-1]),
    repeated or past the admitted count, so a caller sizing anything from
    them checks them first. *)

val node_backlog : node -> int
(** Packets injected but not yet admitted (ingress queue + lookahead). *)

val node_iter_pending : node -> (Mp5_banzai.Machine.input -> unit) -> unit
(** The {!node_backlog} injected-but-unadmitted packets, in admission
    order — what a fabric snapshot serializes alongside {!node_encode}
    (which excludes the ingress queue). *)

val node_delivered : node -> int
val node_dropped : node -> int
val node_max_queue : node -> int

val node_access_digest : node -> int
(** The streaming per-cell access-sequence digest, as {!type-digests}
    [dg_access]. *)

val node_store : node -> Mp5_banzai.Store.t
(** Registers merged across pipelines, as in {!type-result} [store]. *)

val node_next_event : node -> now:int -> int
(** After an idle cycle [now], the machine's next phantom delivery, remap
    boundary or fault-plan edge ([max_int] for none). *)

val node_encode : Mp5_util.Codec.t -> node -> unit
(** Append the node machine to a caller's writing codec as one nested
    ["mp5-snap/1"] frame ({!Mp5_util.Codec.framed}), byte-identical to
    a length-prefixed standard snapshot.  The ingress queue is NOT
    included — the fabric snapshot carries pending packets itself,
    since it owns their metadata. *)

val node_restore :
  ?into:node ->
  on_exit:(seq:int -> latency:int -> fields:int array -> off:int -> unit) ->
  on_drop:(seq:int -> unit) ->
  Mp5_util.Codec.t ->
  Transform.t ->
  (node, resume_error) Stdlib.result
(** Read one {!node_encode} frame from the caller's reading codec (through a
    bounded sub-reader, in place; the frame's magic, length and checksum
    are verified) and rebuild the node with a fresh, empty ingress queue
    positioned at the snapshot's admission cursor and last arrival time;
    the caller re-injects any pending packets it recorded.  Re-encoding
    the restored node writes the frame it was read from.  Error cases
    are those of {!resume}; [Corrupt] positions are absolute offsets in
    the caller's file.

    [into] is a retired node whose machine is decoded into instead of a
    new one, when it runs the same program (physically equal) with the
    snapshot's params: its fault runtime, FIFOs, channel, slab, transfer
    vectors and access log are reset, keeping their storage, and the decode then
    runs exactly as on a fresh machine.  Any other [into] is ignored.
    [into] must not be stepped again whatever the outcome: an error may
    leave its machine half decoded. *)
