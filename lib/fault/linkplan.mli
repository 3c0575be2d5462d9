(** Deterministic link-fault schedules for fabric simulation.

    The fabric analogue of {!Fault}: a plan is a schedule of link
    misbehaviour — a link going down for a window, a link adding
    propagation delay — applied by the fabric driver when it routes
    packets onto links.  Unlike pipeline fault plans there is no RNG and
    no mutable runtime: every event is a deterministic window, so the
    plan itself answers queries and needs nothing saved in snapshots
    beyond its own text.

    {2 Plan text format}

    The statement grammar of {!Plan_syntax} (one statement per line or
    [;]-separated, [#] comments) with link events; windows start at
    cycle 0 or later and link ids are non-negative:

    {v
    link-down @500..900 link=3        # sends onto link 3 are dropped
    link-delay @100..200 link=0 extra=5   # +5 cycles propagation
    v}

    Semantics under simulation:
    - [link-down]: packets routed onto the link during the window are
      dropped and counted ([link_dropped] in the fabric result; the
      conservation monitor includes them).  Packets already in flight
      on the link continue to their destination.
    - [link-delay]: packets entering the link during the window take
      [extra] additional cycles; overlapping delay windows add.
      Deliveries on a link never reorder — each link is a FIFO, and a
      packet entering behind a delayed one inherits its due cycle. *)

type kind = Link_down | Link_delay of int

type event = { from_ : int; until_ : int; link : int; kind : kind }
(** Active on cycles [from_ .. until_] inclusive. *)

type plan = { events : event list }

val empty : plan

val parse : string -> (plan, string) result
(** Parse the text format; errors carry the offending line number. *)

val load : path:string -> (plan, string) result
(** {!parse} on a file's contents; errors are prefixed with the path. *)

val validate : plan -> n_links:int -> (unit, string) result
(** Check every event against the fabric's shape (link ids in range). *)

val to_string : plan -> string
(** {!pp_plan} to a string; [parse] of the output round-trips, which is
    how fabric snapshots embed their link plan. *)

val is_down : plan -> now:int -> link:int -> bool

val extra_delay : plan -> now:int -> link:int -> int
(** Added propagation delay for a packet entering [link] at [now];
    overlapping windows add. *)

val next_edge : plan -> now:int -> int
(** First cycle after [now] at which any event opens or closes
    ([max_int] when none) — bounds the fabric's idle fast-forward
    exactly as {!Fault.next_edge} bounds the single-switch loop. *)
