(** Sampling from the distributions the paper's workloads need.

    - discrete distributions given as weights (used for the skewed
      95%-of-packets-to-30%-of-states access pattern of §4.3.1);
    - empirical CDFs given as (value, cumulative-probability) knots (used
      for the DCTCP web-search flow-size distribution of §4.4);
    - bimodal packet sizes (§4.4). *)

type discrete
(** A discrete distribution over [0 .. n-1]. *)

val discrete : float array -> discrete
(** [discrete weights] normalises [weights] into a distribution.  Sampling
    is O(1) via Walker's alias method.  Weights must be non-negative and
    not all zero. *)

val uniform_discrete : int -> discrete
(** Uniform over [0 .. n-1]. *)

val skewed : n:int -> hot_fraction:float -> hot_mass:float -> discrete
(** [skewed ~n ~hot_fraction ~hot_mass] puts [hot_mass] of the probability
    uniformly on the first [hot_fraction * n] values ("hot" states) and the
    rest uniformly on the remaining values.  The paper's skewed pattern is
    [skewed ~hot_fraction:0.3 ~hot_mass:0.95]. *)

val sample : Rng.t -> discrete -> int

type empirical
(** A piecewise-linear empirical CDF over positive values. *)

val empirical : (float * float) array -> empirical
(** [empirical knots] where knots are (value, cdf) pairs sorted by cdf,
    with the last cdf equal to 1.0. *)

val sample_empirical : Rng.t -> empirical -> float

val mean_empirical : empirical -> float
(** Analytic mean of the piecewise-linear distribution. *)

type bimodal

val bimodal : lo:int -> hi:int -> lo_prob:float -> bimodal
(** Packet-size distribution clustered around [lo] and [hi] bytes. *)

val sample_bimodal : Rng.t -> bimodal -> int
val mean_bimodal : bimodal -> float
