(** Runtime invariant monitor.

    An optional companion to a simulation run (passed like a
    [Metrics.t]) that re-derives the architecture's invariants from the
    live machine state every [epoch] cycles and fails fast — with a
    diagnostic snapshot instead of silently corrupted results — when one
    does not hold:

    - {b conservation}: every in-flight packet is findable in exactly
      one slot, FIFO data entry or pending crossbar transfer;
    - {b flow affinity} (D2): every queued or in-flight stateful packet
      sits at / is headed to the pipeline that currently holds its
      cell's state;
    - {b FIFO occupancy bounds} (non-adaptive FIFOs only);
    - {b phantom conservation} (Invariant 1 accounting) and the
      busy+idle+blocked cycle-classification total, when the run is also
      metered.

    The checks themselves live in [Sim] (they need the machine); this
    module holds the cadence, the verdicts and the diagnostics.  The
    monitor must stay green under every fault plan the degraded-mode
    recovery claims to handle — that is what makes it a meaningful
    oracle for the fault-injection tests. *)

exception Violation of string
(** Raised on a failed check when [fail_fast] (the default); the payload
    is the full diagnostic (cycle, what failed, last trace events). *)

type t

val create : ?epoch:int -> ?fail_fast:bool -> ?events:Mp5_obs.Trace.t -> unit -> t
(** [epoch] (default 64) is the check cadence in cycles; [fail_fast]
    (default [true]) raises {!Violation} on the first failed check —
    pass [false] to keep counting and read {!violations} afterwards.
    [events] attaches an event-trace ring whose tail is embedded in
    diagnostics. *)

val due : t -> now:int -> bool
(** Is a check due at cycle [now]?  One int compare — the simulator
    calls this every cycle. *)

val mark : t -> now:int -> unit
(** Record that a full check pass ran at [now] and schedule the next. *)

val report : t -> cycle:int -> string -> unit
(** Record a violation found at [cycle].
    @raise Violation when the monitor is fail-fast. *)

val checks : t -> int
val violations : t -> int
val ok : t -> bool
val last_diagnostic : t -> string option

val summary : t -> string
(** One-line verdict plus the last diagnostic, for reports and CI
    artifacts. *)
