(** Wall-clock span profiler for the cycle loops.

    Accumulates monotonic-clock (CLOCK_MONOTONIC, nanosecond) spans per
    (phase, domain): nanosecond totals, span counts, and log2-bucketed
    duration histograms, plus GC counter deltas sampled at epoch
    boundaries and a capped raw-event buffer for Chrome trace-event
    export (loadable in Perfetto, one track per domain).

    Like {!Metrics}, the profiler is a pure observer: the simulated
    machine never reads it, so results are bit-identical with profiling
    on or off (enforced by the differential corpus).  Unlike Metrics it
    measures host wall time, not simulated cycles, so none of its
    counters are deterministic — only its {e shape} is pinned by tests.

    {b Modes.}  The mode is a label: it is recorded in the profile
    (the [mp5-prof/1] [mode] field and the report header) and changes
    nothing else.  [Sampled] and [Full] record the same spans — one
    per cycle phase, plus the remap and checkpoint boundaries. *)

type mode = Sampled | Full

type phase =
  | Deliver     (** phantom-calendar drain into the rings *)
  | Apply       (** crossbar transfer application *)
  | Pop         (** FIFO pops into stage slots *)
  | Exec        (** stage execution *)
  | Movement    (** crossbar steering sweep *)
  | Sweep       (** the metrics classification sweep (metrics only) *)
  | Source      (** arrival admission / source pull *)
  | Checkpoint  (** snapshot encoding *)
  | Remap       (** sharding remap at a period boundary *)
  | Fault       (** fault-plan edges (instant events only) *)

val phase_name : phase -> string
(** Lowercase stable identifier, used in JSON snapshots and traces. *)

type t

val create : ?mode:mode -> ?max_events:int -> unit -> t
(** A fresh profiler; [mode] defaults to [Sampled].  [max_events]
    (default 262144) caps the raw-event buffer backing the Chrome
    trace; spans beyond the cap still accumulate into the totals and
    histograms but record no event. *)

val now : unit -> int
(** Monotonic nanoseconds ([CLOCK_MONOTONIC] via a noalloc C stub). *)

val enter : t -> unit
(** Open a wall-clock leg (idempotent while open).  Called by the
    cycle loop once per leg; wall time accumulates across legs, so a
    checkpoint/resume chain profiles as one run. *)

val leave : t -> unit
(** Close the leg: accumulate wall time and take a GC sample. *)

val record : t -> ?domain:int -> phase -> t0:int -> unit
(** [record t phase ~t0] closes a span opened at [t0 = now ()]:
    duration [now () - t0] is added to the (phase, domain) total, the
    span count, the phase histogram, and (capacity permitting) the
    event buffer. *)

val add : t -> ?domain:int -> phase -> ts:int -> dur:int -> unit
(** Like {!record} with an explicit duration — used where adjacent
    spans share a boundary timestamp, saving a clock read. *)

val instant : t -> ?domain:int -> phase -> unit
(** Mark a point event (remap, checkpoint, fault edge) at [now ()];
    appears as an instant in the Chrome trace, not in the totals. *)

val gc_sample : t -> unit
(** Accumulate GC counter deltas ([Gc.quick_stat]) since the previous
    sample: minor/major collections and promoted words. *)

val wall_ns : t -> int
(** Total wall time across closed legs (ns). *)

val total_ns : t -> phase -> int
(** Sum of the phase's span durations across all domains. *)

val count : t -> phase -> int

val validate : t -> (unit, string) result
(** Internal invariants: no open leg, non-negative totals, and every
    phase histogram's mass equal to the phase's span count. *)

val json_string : t -> string

val validate_json : string -> (unit, string) result
(** Re-check a parsed-back snapshot: schema tag, known mode and phase
    names, non-negative counters, and histogram-mass/count agreement
    per phase. *)

val chrome_string : t -> string

val pp : Format.formatter -> t -> unit
(** One-screen report: wall time, per-phase share of wall time with
    counts, and the GC counters. *)
