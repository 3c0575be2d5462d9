(** Per-run simulator metrics (the tentpole of the telemetry subsystem).

    A [Metrics.t] is a bundle of raw [int] counters and fixed-size [int
    array] histograms that the simulator bumps inline from its cycle loop
    when (and only when) the caller passed one to [Sim.run ~metrics].
    Every bump is a field increment or an array store — no closures, no
    allocation — so instrumented runs stay bit-identical to bare runs and
    the disabled path costs one [option] branch per instrumentation site.

    The record is exposed so the simulator writes fields directly; treat
    it as write-only from the outside and read it through the exporters
    ({!to_json}, {!to_prometheus}, {!pp}) or the accessors below.

    Cycle accounting: every simulated (i.e. visited — the simulator
    fast-forwards fully idle gaps) cycle classifies each (stage,
    pipeline) slot into exactly one of three states, so

      busy + idle + blocked = stages * k * cycles

    holds by construction ({!validate} checks it).  [blocked] means a
    phantom sat at the logical FIFO head (D4 head-of-line blocking);
    [idle] means the queue was empty and no packet occupied the slot.
    Within [busy], [claimed] attributes the cycles where the slot was
    taken by a stateless-priority packet (Invariant 2) rather than a
    queue pop — the third stall cause for the queue behind it. *)

type drop_cause = Fifo_full | No_phantom | Starved | Pipeline_down | Injected
(** [Pipeline_down]: spilled from (or routed to) a downed pipeline;
    [Injected]: dropped by an explicit fault-plan event (crossbar drop,
    FIFO slot loss). *)

type t = {
  m_stages : int;
  m_k : int;
  mutable m_cycles : int;
  (* per (stage, pipeline), flattened [stage * k + pipe] *)
  m_busy : int array;
  m_idle : int array;
  m_blocked : int array;
  m_claimed : int array;
  m_occ_hwm : int array;      (* per-slot high-water of sampled queue depth *)
  m_occ_hist : int array;     (* shared histogram of per-cycle queue depths *)
  (* per stage *)
  m_xfer : int array;         (* packets entering the stage via the crossbar *)
  m_xfer_cross : int array;   (* ... of which changed pipeline *)
  (* scalar counters *)
  mutable m_arrivals : int;
  mutable m_delivered : int;
  mutable m_ecn_marked : int;
  mutable m_drop_fifo_full : int;
  mutable m_drop_no_phantom : int;
  mutable m_drop_starved : int;
  mutable m_drop_pipeline_down : int;
  mutable m_drop_injected : int;
  (* fault injection / degraded-mode recovery (lib/fault) *)
  mutable m_fault_events : int;        (* fault-plan events applied *)
  mutable m_fault_stall_cycles : int;  (* slot-cycles lost to down/stalled pipes *)
  mutable m_pipe_down_cycles : int;    (* summed (down pipelines x cycles) *)
  mutable m_evac_moves : int;          (* cells evacuated off downed pipelines *)
  mutable m_dup_packets : int;         (* ghost packets from crossbar duplication *)
  mutable m_phantom_scheduled : int;
  mutable m_phantom_delivered : int;
  mutable m_phantom_doomed : int;   (* deliveries suppressed: packet already dropped *)
  mutable m_phantom_dropped : int;  (* phantom push hit a full ring *)
  mutable m_remap_periods : int;
  mutable m_remap_moves : int;
  mutable m_imb_before : int;       (* summed max-min pipeline load at each move *)
  mutable m_imb_after : int;
  (* latency histogram *)
  m_lat_hist : int array;
  mutable m_lat_count : int;
  mutable m_lat_sum : int;
  mutable m_lat_max : int;
}

val create : stages:int -> k:int -> t

(* --- hot-loop bumps (all allocation-free) --- *)

val on_cycle : t -> unit
val busy : t -> stage:int -> pipe:int -> unit
val claimed : t -> stage:int -> pipe:int -> unit
(** [claimed] implies [busy]: it bumps both. *)

val stall_phantom : t -> stage:int -> pipe:int -> unit
val stall_empty : t -> stage:int -> pipe:int -> unit
val occupancy : t -> stage:int -> pipe:int -> depth:int -> unit
val transfer : t -> stage:int -> cross:bool -> unit
val arrival : t -> unit
val delivered : t -> latency:int -> ecn:bool -> unit
val drop : t -> drop_cause -> unit
val phantom_scheduled : t -> unit
val phantom_delivered : t -> unit
val phantom_doomed : t -> unit
val phantom_dropped : t -> unit
val remap_period : t -> unit
val remap_move : t -> before:int -> after:int -> unit
val fault_event : t -> unit

val fault_stall : t -> stage:int -> pipe:int -> unit
(** A slot-cycle lost to a downed or stalled pipeline; classifies the
    slot as blocked (so the cycle total stays exact) and counts it. *)

val pipe_down_cycles : t -> int -> unit
(** Add [n_down] for one cycle spent with [n_down] pipelines down. *)

val evac_move : t -> unit
val dup_packet : t -> unit

(* --- accessors for tests and reports --- *)

val total : int array -> int
val dropped_total : t -> int

val faulted : t -> bool
(** True once any fault-plan event has been applied to the run. *)

val lat_mass : t -> int
(** Total count held by the latency histogram (= deliveries). *)

val equal : t -> t -> bool
(** Structural equality of every counter — the differential harness
    checks the two execution engines emit identical telemetry. *)

val validate : t -> (unit, string) result
(** Internal invariants: cycle classification totals, latency mass vs
    deliveries, drop causes vs totals, phantom conservation. *)

(* --- checkpointing --- *)

val codec : Mp5_util.Codec.t -> t -> unit
(** Every counter and histogram as one fixed-layout int array, the
    metrics part of a machine snapshot ({!Mp5_util.Codec}): written from
    [t] or read into it in place.  The array's length, stage count and
    pipeline count must be [t]'s; every counter is a plain word. *)

(* --- exporters --- *)

val json_string : t -> string

val validate_json : string -> (unit, string) result
(** Parse a serialized snapshot and re-check {!validate}'s invariants on
    it — the artifact check run by bench and CI on files just written. *)

val to_prometheus : t -> string
(** Prometheus text exposition format ([mp5_*] metric families). *)

val pp : Format.formatter -> t -> unit
(** One-screen human run report: utilization and stall attribution,
    latency percentiles, drops by cause, phantom/crossbar/remap summary. *)
