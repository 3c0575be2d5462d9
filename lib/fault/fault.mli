(** Deterministic fault injection for the MP5 simulator.

    A {!plan} is a seeded schedule of hardware-misbehaviour events —
    pipelines going down and coming back, stateful stages stalling,
    crossbar transfers being dropped or duplicated, FIFO slots losing an
    entry, phantom deliveries arriving late — applied against a run from
    a single hook in [Sim]'s cycle loop.  Plans are fully deterministic:
    the probabilistic events (crossbar drop/duplication) draw from an
    [Rng] seeded by the plan, and a draw is only taken while the window
    is active, so the same plan on the same trace always injects the
    same faults.

    Like [lib/obs], the subsystem is a pure add-on: with no plan
    given the simulator takes one [option] branch per site and the
    results are bit-identical to an uninstrumented build.

    {2 Plan text format}

    The statement grammar of {!Plan_syntax} (one statement per line or
    [;]-separated, [#] comments), with a [seed N] statement and the
    event keywords:

    {v
    seed 42
    down @1000 pipe=2            # point events: single @C cycle
    up @3000 pipe=2
    fifo-loss @700 stage=2 pipe=1
    stall @500..800 stage=1 pipe=0    # window events: @A..B inclusive
    xbar-drop @100..2000 p=0.01
    xbar-dup @100..2000 p=0.005
    phantom-delay @500..900 extra=3
    v}

    Semantics under simulation:
    - [down]/[up]: the pipeline stops accepting arrivals, stateless
      steering and queue pops; queued packets spill (dropped with cause
      [Pipeline_down]) and in-flight transfers to it are dropped.
      Dynamic sharding evacuates its resident cells at the next remap
      boundary.  A plan may never take down the last live pipeline
      ([Failure] at runtime if it tries).  In [Naive_single] mode a plan
      downing pipeline 0 halts all arrivals (the deadlock guard trips).
    - [stall]: the stateful stage at (stage, pipe) issues no queue pops
      for the window (models a state-memory stall); stateless-priority
      packets still claim the slot.
    - [xbar-drop]/[xbar-dup]: each crossbar transfer is dropped (any
      tag) or duplicated (stateless transfers only — the copy is a
      ghost carrying the current header contents) with probability [p].
    - [fifo-loss]: the FIFO at (stage, pipe) loses its ready head entry.
    - [phantom-delay]: phantoms scheduled during the window arrive
      [extra] cycles late, breaking Invariant 1's arrival-order
      guarantee and surfacing as [no_phantom] drops. *)

type kind =
  | Pipe_down of int
  | Pipe_up of int
  | Fifo_loss of { stage : int; pipe : int }
  | Stall of { stage : int; pipe : int }
  | Xbar_drop of float
  | Xbar_dup of float
  | Phantom_delay of int

type event = { from_ : int; until_ : int; kind : kind }
(** Active on cycles [from_ .. until_] inclusive; point events have
    [from_ = until_]. *)

type plan = { seed : int; events : event list }

val empty : plan
val is_empty : plan -> bool

val point : at:int -> kind -> event
val window : from_:int -> until_:int -> kind -> event

val parse : string -> (plan, string) result
(** Parse the text format; errors carry the offending line number. *)

val load : path:string -> (plan, string) result
(** {!parse} on a file's contents; errors are prefixed with the path. *)

val max_cycle : int
(** [2^60]: the last cycle an event may reach, the bound a snapshot
    holds every cycle to. *)

val max_phantom_delay : int
(** [65535]: the largest [extra] a snapshot records. *)

val valid_probability : float -> bool
(** [0 <= p <= 1] ([nan] is not). *)

val validate : plan -> k:int -> stages:int -> (unit, string) result
(** Check every event against the machine's shape (pipeline and stage
    ranges) and the bounds above before running: a plan that validates
    can be suspended and resumed. *)

val pp_plan : Format.formatter -> plan -> unit

(** {2 Runtime}

    The runtime tracks which windows are active via a sorted edge list,
    so a quiet cycle costs one integer compare ([now < next_edge]). *)

type t

type action = Down of int | Up of int | Loss of int * int
(** Point events returned by {!on_cycle} for the simulator to act on:
    [Loss (stage, pipe)] is a FIFO slot loss. *)

val start : plan -> k:int -> stages:int -> t
(** @raise Invalid_argument when {!validate} rejects the plan. *)

val next_edge : t -> int
(** Next cycle at which the fault state changes ([max_int] when it never
    will again); lets the simulator's idle fast-forward stay exact. *)

val on_cycle : t -> now:int -> action list
(** Process every edge up to and including [now] (catching up over
    fast-forwarded cycles) and return the point actions to apply, in
    plan order.  Call once per simulated cycle, guarded by
    [now >= next_edge].
    @raise Failure if the plan takes down the last live pipeline. *)

val is_down : t -> int -> bool
val any_down : t -> bool
val n_down : t -> int

val down_mask : t -> bool array
(** The live down flags, indexed by pipeline — read-only. *)

val is_stalled : t -> stage:int -> pipe:int -> bool
val phantom_delay : t -> int

val drop_transfer : t -> bool
(** Decide one crossbar transfer's fate; consumes a seeded draw only
    while an [xbar-drop] window is active.  Call before
    {!dup_transfer} — the order is part of the deterministic replay. *)

val dup_transfer : t -> bool

val applied : t -> int
(** Events whose start edge has been processed so far. *)

(** {2 Checkpointing} *)

val codec : Mp5_util.Codec.t -> t -> now:int -> t
(** A runtime's part of a machine snapshot ({!Mp5_util.Codec}): its RNG
    words, the consumed-prefix cursor of the (deterministically sorted)
    event array, and the active windows as indices into it, at most the
    cursor.  An encode returns [t]; a decode is given a fresh {!start}
    of the plan the runtime ran and returns it rebuilt at cycle [now]:
    down flags, stall matrix, probabilities and next edge come from
    replaying the consumed prefix. *)
