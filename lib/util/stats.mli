(** Small online/offline statistics helpers used by the experiment
    harnesses to summarise throughput runs. *)

val mean : float array -> float
val stddev : float array -> float
val min_max : float array -> float * float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; linear interpolation between
    order statistics.  The input array is not modified. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Total on the empty array: every field of the summary is zero. *)

type counter
(** Streaming counter: count / sum / max. *)

val counter : unit -> counter
val add : counter -> float -> unit
val count : counter -> int
val total : counter -> float
val maximum : counter -> float
(** Max of added values.  The running maximum starts at [0.0], so an
    empty counter answers [0.0] — and so does one fed only negative
    values; callers tracking quantities that can be negative must keep
    their own maximum. *)
