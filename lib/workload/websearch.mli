(** The DCTCP "web search" flow-size distribution (Alizadeh et al.,
    SIGCOMM 2010), which §4.4 uses for flow sizes and traffic — and hence
    for the state access pattern — of the real-application experiments.

    The distribution is heavy-tailed: about half the flows are under
    100 KB, but flows over 1 MB carry most of the bytes.  We encode the
    published CDF as a piecewise-linear empirical distribution. *)

val sample_flow_size : Mp5_util.Rng.t -> int
(** A flow size in bytes. *)

val sample_flow_packets : Mp5_util.Rng.t -> mean_pkt_bytes:float -> int
(** Number of packets in a sampled flow, at least 1. *)

val mean_flow_size : unit -> float
