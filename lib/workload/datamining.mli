(** The "data mining" flow-size distribution (Greenberg et al. / as used
    by pFabric alongside the web-search workload §4.4 draws from).

    Even heavier-tailed than web search: ~80% of flows fit in a few
    packets while flows above 100 MB carry a large share of the bytes.
    Offered as an alternative traffic model for the real-application
    experiments; the paper's Figure 8 uses web search. *)

val sample_flow_size : Mp5_util.Rng.t -> int
val sample_flow_packets : Mp5_util.Rng.t -> mean_pkt_bytes:float -> int
val mean_flow_size : unit -> float
