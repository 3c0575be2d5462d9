(** High-level user API: compile a Domino program once, then run it on the
    golden single-pipeline reference, on MP5, or on any baseline, and
    check functional equivalence.  This is the entry point the examples
    and benchmarks use. *)

type t = {
  compiled : Mp5_domino.Compile.t;
  prog : Transform.t;
}

val create :
  ?limits:Mp5_banzai.Capability.limits ->
  ?pad_to_stages:int ->
  ?flow_order:Mp5_banzai.Expr.t * int ->
  string ->
  (t, string) result
(** Compile Domino source and run the PVSM-to-PVSM transformer.
    [pad_to_stages] models a machine physically longer than the program;
    [flow_order] enables §3.4's per-flow exit-order enforcement (see
    {!Transform.create}).  A compile error, or a program whose
    serialized form exceeds [limits.max_stages], is [Error]. *)

val create_exn :
  ?limits:Mp5_banzai.Capability.limits ->
  ?pad_to_stages:int ->
  ?flow_order:Mp5_banzai.Expr.t * int ->
  string ->
  t

val config : t -> Mp5_banzai.Config.t
(** The lowered single-pipeline configuration (pre-transform). *)

val field : t -> string -> int
(** User header field id by name.
    @raise Not_found for unknown fields. *)

val table : t -> string -> Mp5_banzai.Table.t
(** Control-plane handle to a declared match table, for population before
    the runtime starts (all control-plane operations happen identically
    and up front, §2.2.1).
    @raise Not_found for unknown tables. *)

val golden : t -> Mp5_banzai.Machine.input array -> Mp5_banzai.Machine.result
(** Run the logical single-pipeline reference. *)

val run :
  ?loop:Sim.loop ->
  ?params:Sim.params ->
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  ?fault:Mp5_fault.Fault.plan ->
  ?monitor:Mp5_fault.Monitor.t ->
  ?prof:Mp5_obs.Prof.t ->
  k:int ->
  t ->
  Mp5_banzai.Machine.input array ->
  Sim.result
(** Run the MP5 simulator ([params] defaults to {!Sim.default_params};
    [loop] (no effect), [metrics], [events], [fault], [monitor] and
    [prof] as in {!Sim.run}). *)

val verify :
  ?params:Sim.params ->
  ?metrics:Mp5_obs.Metrics.t ->
  ?events:Mp5_obs.Trace.t ->
  ?fault:Mp5_fault.Fault.plan ->
  ?monitor:Mp5_fault.Monitor.t ->
  ?prof:Mp5_obs.Prof.t ->
  k:int ->
  ?flow_of:(int -> int) ->
  t ->
  Mp5_banzai.Machine.input array ->
  Sim.result * Equiv.report
(** Run both machines and compare. *)
