(** The leg loop, one run segment of a switch ({!Sim}) or a fabric
    ([lib/fabric]) up to its drain or suspension.  A target steps cycles
    and answers int or bool queries, so the loop allocates nothing per
    cycle; the policy around them is the loop's, the same for both. *)

type clock = {
  mutable now : int;              (** the next cycle to visit *)
  mutable last_score : int;       (** the progress guard's best score ... *)
  mutable last_progress_t : int;  (** ... and the cycle it was reached *)
  mutable visited : int;          (** cycles visited in this leg, not serialized *)
}

type 'a parking
(** A per-domain slot for the target a suspension left behind, in an
    ephemeron keyed by the snapshot string it returned, so it lives as
    long as that string.  A resume handed that very string decodes into
    it; any other string (an equal copy, another process) does not. *)

val parking : unit -> 'a parking

val take : 'a parking -> string -> 'a option
(** Empty the slot, whatever the string, and return the target parked
    under [snapshot] if any: a target is resumed into at most once, and
    a resume that fails parks nothing. *)

type 'a target = {
  clock : 'a -> clock;
  live : 'a -> bool;              (** work remains; the leg drains when false *)
  busy : 'a -> bool;              (** a machine holds a packet: visit the next cycle *)
  step : 'a -> int -> unit;       (** simulate one cycle in full *)
  score : 'a -> int;              (** grows whenever a packet enters, leaves or drops *)
  next_event : 'a -> int -> int;  (** idle after cycle [t]: the next event, [max_int] for none *)
  encode : 'a -> string;          (** a snapshot at the top of cycle [now] *)
  parked : 'a parking;
}

val run :
  'a target ->
  what:string ->
  ?prof:Mp5_obs.Prof.t ->
  ?cycle_budget:int ->
  ?stop:bool ref ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(cycle:int -> string -> unit) ->
  ?heartbeat_every:int ->
  ?on_heartbeat:(cycle:int -> unit) ->
  'a ->
  string option
(** Step the target until it drains ([None]), or until [cycle_budget]
    cycles are visited or [stop] is set: then [Some snapshot], with the
    target parked under it.  After a busy cycle the next is visited,
    after an idle one the clock jumps to [next_event].  Every
    [checkpoint_every] visited cycles [on_checkpoint] gets a snapshot,
    and every [heartbeat_every] (default 1) [on_heartbeat] a beat, after
    that checkpoint.  [what] names the entry point in the errors.
    @raise Invalid_argument on a non-positive cadence.
    @raise Failure when the score has not grown for 200,000 cycles. *)

val position :
  Mp5_workload.Packet_source.t ->
  consumed:int ->
  digest:Mp5_util.Hashing.state ->
  fold:(Mp5_util.Hashing.state -> Mp5_banzai.Machine.input -> unit) ->
  what:string ->
  (unit, string) result
(** Position a resumed leg's source [what] at a snapshot's cursor: as it
    is if it is there, or, fresh, by replaying the consumed prefix under
    a new digest ([fold] per packet) that must equal [digest]. *)
