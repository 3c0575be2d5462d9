(** Small online/offline statistics helpers used by the experiment
    harnesses to summarise throughput runs. *)

val mean : float array -> float
val stddev : float array -> float
val min_max : float array -> float * float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics.  The input array is not modified. *)
