(** The phantom channel (§3.2): a physically separate interconnect on
    which phantom packets travel one stage per clock cycle without ever
    being queued before their destination stage (runtime Invariant 1).

    Modelled as a calendar of deliveries: a phantom generated at cycle [t]
    in the address-resolution stage and destined to stage [j] is delivered
    at cycle [t + j].  Deliveries for the same cycle are returned in
    scheduling order, which preserves generation order.

    A delivery is six ints: the packet's [seq], the destination [stage]
    and pipeline [dest], the [ring] (source pipeline) it queues in, the
    resolved [cell], and the [slot] the packet's owner keeps it under —
    the simulator's slab access index, where the delivered phantom's
    position is recorded and through which a dropped packet's delivery
    is recognised.  The channel never interprets [slot].  The calendar
    stores four ints per delivery, flat, so scheduling and draining
    allocate nothing. *)

type t

val create : unit -> t

val schedule :
  t -> at:int -> seq:int -> stage:int -> dest:int -> ring:int -> cell:int -> slot:int -> unit
(** Schedule a delivery at cycle [at].
    @raise Invalid_argument unless [stage >= 0] and [dest] and [ring]
    lie in [\[0, 64)] (pipelines are limited to 64, as in {!Fifo}). *)

val drain :
  t ->
  now:int ->
  (seq:int -> stage:int -> dest:int -> ring:int -> cell:int -> slot:int -> unit) ->
  unit
(** Apply the function to each delivery scheduled for cycle [now], in
    scheduling order, removing them.  The callback must not [schedule]
    back into cycle [now]; it may schedule into any later cycle. *)

val pending : t -> int
(** Number of in-flight deliveries. *)

val clear : t -> unit
(** Drop every pending delivery, keeping the calendar's buckets:
    allocates nothing, and the channel then behaves as a fresh one. *)

val iter :
  t ->
  (at:int -> seq:int -> stage:int -> dest:int -> ring:int -> cell:int -> slot:int -> unit) ->
  unit
(** Every pending delivery, cycles ascending, same-cycle deliveries in
    scheduling order, without removing any.  Replaying {!schedule} in
    this order into a fresh channel reproduces the observable state
    exactly — this is how simulator checkpoints serialize the phantom
    channel (all but [slot], which names a slab slot of the running
    machine).  The callback must not [schedule]. *)

val set_slots : t -> (seq:int -> stage:int -> dest:int -> cell:int -> slot:int -> int) -> unit
(** Replace every pending delivery's [slot] by the function's answer
    (given its seq, stage, destination pipeline, cell and slot),
    in {!iter} order; nothing else changes.  How a restored machine
    gives the deliveries it decoded their new slab slots. *)

val next_due : t -> int
(** Earliest cycle with a scheduled delivery, [max_int] if none.  Lets
    the simulator fast-forward over idle cycles instead of polling each
    one. *)
