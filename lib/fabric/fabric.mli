(** Multi-switch fabric driver: lock-step composition of {!Mp5_core.Sim}
    nodes over a {!Topology}.

    Each switch is an independent simulator instance wrapped with
    ingress/egress port adapters; links are per-link FIFO calendars of
    in-flight packets stamped with due cycles.  One fabric cycle is:

    + {b inject} — host packets whose arrival time is due enter their
      source host's uplink;
    + {b deliver} — link packets whose due cycle has arrived enter the
      destination switch's ingress queue (ascending link id, FIFO within
      a link) or, on a host-bound link, leave the fabric;
    + {b step} — every switch advances one machine cycle, in node
      order; each packet that exits a switch consults the forwarding table ({!Routing.compile}) and
      enters its next link as it exits.

    The driver is sequential: deliveries are ordered by (link id, FIFO
    position), and each switch owns its egress links, so every link
    receives its packets in one fixed order.

    The driver extends the single-switch invariant monitor to
    fabric-wide packet conservation: at every monitor epoch,

    {v injected = in-switches + queued + on-links + delivered + dropped v}

    summed over all nodes and links, where dropped splits into
    node-level (stateful cancel/timeout), forwarding-miss, and
    link-down drops. *)

module Hist : sig
  (** Log2-bucketed integer latency histogram: constant-size,
      integer-only state, so equal runs compare exactly while the bench
      layer reads approximate percentiles. *)

  type t = { mutable count : int; mutable sum : int; mutable max : int; buckets : int array }

  val mean : t -> float

  val percentile : t -> float -> int
  (** Upper bound of the bucket holding the p-th percentile sample. *)
end

type params = {
  fp_sim : Mp5_core.Sim.params;  (** per-switch machine parameters *)
  fp_topo : Topology.t;
  fp_policy : Routing.policy;
  fp_plan : Mp5_fault.Linkplan.plan;  (** link fault schedule *)
}

type result = {
  fr_switches : int;
  fr_hosts : int;
  fr_injected : int;        (** packets pulled from the host source *)
  fr_delivered : int;       (** packets handed to destination hosts *)
  fr_node_dropped : int;    (** dropped inside switches (summed) *)
  fr_miss_dropped : int;    (** forwarding-table misses (counted, never a crash) *)
  fr_link_dropped : int;    (** sends attempted on a downed link *)
  fr_cycles : int;          (** last delivery/drop cycle - first arrival + 1 *)
  fr_exit_digest : int;
      (** streaming FNV over (fabric seq, last-hop latency, headers) in
          delivery order; for a one-switch zero-delay fabric this equals
          the plain run's exit digest *)
  fr_access_digest : int;   (** commutative register-access digest, summed over nodes *)
  fr_store_digest : int;    (** FNV over final register stores, node order *)
  fr_hop_hist : Hist.t;     (** per-hop pipeline latency *)
  fr_e2e_hist : Hist.t;     (** injection-to-delivery latency *)
  fr_hops_hist : Hist.t;    (** switches traversed per delivered packet *)
  fr_node_delivered : int array;
  fr_node_dropped_by : int array;
  fr_node_max_queue : int array;
}

type outcome =
  | Completed of result
  | Suspended of string
      (** hit [cycle_budget]; payload is a snapshot (magic ["mp5-fab/1"])
          accepted by {!resume} *)

exception Conservation of string
(** Raised on a fabric conservation violation when no monitor is
    installed; with a monitor the violation goes through
    {!Mp5_fault.Monitor.report} (exit 3 in the CLI). *)

val run :
  ?monitor:Mp5_fault.Monitor.t ->
  ?cycle_budget:int ->
  ?sabotage:int ->
  dst:(Mp5_banzai.Machine.input -> int) ->
  params ->
  Mp5_core.Transform.t ->
  Mp5_workload.Packet_source.t ->
  outcome
(** [run ~dst params prog source] drains the host source through the
    fabric until every packet is delivered or dropped.  [source] packets
    carry [port = source host id]; [dst] reads the destination host from
    a packet (out-of-range means an ingress forwarding miss, counted).
    [sabotage] (testing hook, default 0) skews the injected counter before the
    final conservation check so the violation path can be demonstrated.

    @raise Invalid_argument on an empty or already-consumed source, or a
    link plan naming links outside the topology.
    @raise Conservation (no monitor) on an accounting violation. *)

val resume :
  ?monitor:Mp5_fault.Monitor.t ->
  ?cycle_budget:int ->
  dst:(Mp5_banzai.Machine.input -> int) ->
  snapshot:string ->
  params ->
  Mp5_core.Transform.t ->
  Mp5_workload.Packet_source.t ->
  (outcome, Mp5_core.Sim.resume_error) Stdlib.result
(** Rebuild a suspended fabric — every node machine, ingress backlog,
    in-flight link state, metadata, digests — and keep driving.  The
    host source must be either fresh (its consumed prefix is replayed
    and checked against the snapshot's source digest) or positioned
    exactly at the snapshot's cursor.  The embedded topology and routing
    digests guard against resuming under a different fabric; the link
    plan travels inside the snapshot.  Monitor counters restart (the
    snapshot does not carry monitor state) but conservation holds at
    every epoch of the resumed run.

    Every field has a stated rule (the section functions in fabric.ml
    and, per node, sim.ml; DESIGN.md "Checkpoint boundary" lists them):
    a field that breaks it is a [Corrupt] positioned at the field and
    reported before anything is sized from it, such as a destination
    outside the topology's hosts, metadata keys other than a node's
    live seqs, or a window of more than 2{^20} free slots.  A topology,
    routing policy, node or link count other than the fabric's is a
    [Mismatch].

    Errors, in precedence order: bad framing (magic, lengths); a
    payload that fails its checksum, reported as
    ["byte 10: checksum mismatch (corrupt snapshot)"] whatever else is
    wrong with it; then the first decode error (a node frame's own
    checksum at that frame's offset, a [Mismatch], a forged field); then
    a source that does not match.  The source is read only after every
    checksum has passed, so a snapshot error leaves it untouched.

    In-process resume ({!Mp5_core.Leg.parking}), as {!Mp5_core.Sim.resume}:
    handed the very string a suspension returned, under the same
    topology, routing policy and program (all physically equal),
    [resume] decodes into the parked node machines, forwarding table,
    metadata tables and link rings instead of building new ones.  Only
    that string, at most once; a resume that fails parks nothing.  The
    bytes are verified and decoded in full on either path, and a fabric
    snapshot is a fixed point of resume: a zero-budget resume
    re-encodes the same bytes. *)

val results_equal : result -> result -> bool
(** Exact equality on every field, histograms included — the
    snapshot/resume identity checks. *)

val throughput : result -> float
(** Delivered packets per fabric cycle. *)

val pp_result : Format.formatter -> result -> unit
