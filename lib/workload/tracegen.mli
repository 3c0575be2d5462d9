(** Workload generation for the paper's experiments.

    Time base: one unit = one MP5 pipeline clock cycle.  A switch with [k]
    pipelines has an aggregate line rate of [k] minimum-size (64 B)
    packets per cycle (§2.2), so a stream of [s]-byte packets arrives at
    [k * 64 / s] packets per cycle. *)

type pattern =
  | Uniform
  | Skewed
  | Skewed_rotating of int
      (** like [Skewed] but the hot 30% is a contiguous block whose start
          rotates every given number of packets — datacenter traffic's
          hot set drifts over time, which is where dynamic sharding beats
          any static placement the most *)
  | Uniform_bursty of int
      (** uniform over the long run, but within each window of the given
          number of packets, 90% of accesses hit a 10% "active" block
          that moves every window — the paper's observation that even
          uniform access has "skewness at smaller time granularities" *)
(** §4.3.1 state access patterns: uniform, or skewed with 95% of packets
    touching 30% of the states (the datacenter heavy-tail shape). *)

type sensitivity_spec = {
  n_packets : int;
  k : int;                    (** pipelines; line rate = k pkts/cycle at 64 B *)
  pkt_bytes : int;            (** fixed packet size (§4.3 default 64) *)
  n_fields : int;             (** user header fields of the program *)
  index_fields : int list;    (** fields to fill with register indices *)
  reg_size : int;
  pattern : pattern;
  n_ports : int;              (** §4.3.1 default 64 *)
  seed : int;
}

val sensitivity : sensitivity_spec -> Mp5_banzai.Machine.input array
(** Line-rate arrival stream whose index fields follow the access
    pattern; remaining fields are uniform small integers. *)

val sensitivity_source : sensitivity_spec -> Packet_source.t
(** The same stream as {!sensitivity}, generated one packet at a time in
    constant memory.  Both are materializations of one generator, so the
    packet sequences are identical by construction. *)

(** {2 Flow-level traffic (§4.4)} *)

type flow_packet = {
  flow : int;         (** dense flow id *)
  src : int;
  dst : int;
  sport : int;
  dport : int;
  bytes : int;
  time : int;         (** arrival cycle *)
  port : int;         (** ingress port *)
  seqno : int;        (** packet's position within its flow *)
}

val flows :
  seed:int ->
  n_packets:int ->
  k:int ->
  concurrency:int ->
  ?sizes:Mp5_util.Dist.bimodal ->
  ?n_ports:int ->
  unit ->
  flow_packet array
(** A line-rate packet stream drawn from [concurrency] simultaneously
    active flows whose sizes follow the web-search distribution; finished
    flows are replaced by fresh ones.  Arrival times keep the aggregate
    byte rate at line rate. *)

val flow_source :
  seed:int ->
  n_packets:int ->
  k:int ->
  concurrency:int ->
  ?sizes:Mp5_util.Dist.bimodal ->
  ?n_ports:int ->
  ?flow_sizes:[ `Websearch | `Datamining ] ->
  fill:(flow_packet -> int array) ->
  unit ->
  Packet_source.t
(** Constant-memory equivalent of {!flows} + {!headers_of_flows}: each
    pull draws one flow packet and adapts it through [fill].  With
    [?flow_sizes] defaulting to [`Websearch] the draw sequence matches
    {!flows} exactly; [`Datamining] swaps in the heavier-tailed
    data-mining flow-size distribution. *)

val headers_of_flows :
  flow_packet array -> fill:(flow_packet -> int array) -> Mp5_banzai.Machine.input array
(** Adapt a flow stream to a program's header layout. *)
