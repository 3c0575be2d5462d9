(** The PVSM-to-PVSM transformer (§3.3): MP5's addition to the Domino
    compiler workflow.

    Given a Banzai pipeline configuration, the transformer

    - prepends an {b address-resolution stage} that, for every stateful
      atom, evaluates the atom's match predicate and register index
      preemptively — possible exactly when those expressions depend only
      on arrival-time header fields, i.e. not on the output of any
      stateful atom ("for most packet processing programs, the register
      indexes a packet accesses are a function of some subset of packet
      header fields");
    - {b serializes} stages that access more than one register array so a
      packet accesses at most one array per stage (required for the
      arrays to be sharded independently); a program whose serialized
      form exceeds the machine's stage budget is rejected, never run
      unsplit;
    - classifies every access:
      {ul
      {- a {e resolvable} index lets the array be sharded across pipelines
         (D2) with the phantom destination computed at arrival;}
      {- an {e unresolvable} index (it needs a value produced by stateful
         processing) pins the whole array to one pipeline — "effectively
         no state sharding";}
      {- an {e unresolvable} predicate makes phantom generation
         conservative: a phantom is emitted as if the packet will access,
         and is consumed without a state access if the predicate turns out
         false — "a nominal performance penalty of one wasted clock
         cycle".}} *)

type guard_plan =
  | G_always
  | G_resolved of Mp5_banzai.Expr.t   (** evaluable on arrival *)
  | G_unresolved                      (** stateful predicate: conservative phantom *)

type index_plan =
  | I_resolved of Mp5_banzai.Expr.t   (** evaluable on arrival *)
  | I_unresolved                      (** stateful index: array pinned *)

type access = {
  acc_id : int;       (** dense, in stage order *)
  reg : int;
  stage : int;        (** stage index in the transformed configuration *)
  atom : Mp5_banzai.Atom.stateful;
  guard : guard_plan;
  index : index_plan;
}

type t = {
  config : Mp5_banzai.Config.t;
      (** stage 0 is the (empty) address-resolution stage; the remaining
          stages are the original program's, possibly serialized *)
  accesses : access array;
  sharded : bool array;      (** per register array *)
}

val create :
  ?limits:Mp5_banzai.Capability.limits ->
  ?pad_to_stages:int ->
  ?flow_order:Mp5_banzai.Expr.t * int ->
  Mp5_banzai.Config.t ->
  (t, string) result
(** [limits] bounds the serialization stage budget (default
    {!Mp5_banzai.Capability.default}).  [pad_to_stages] appends empty
    stages so the pipeline has the physical length of the modelled
    machine (§4.3.1 simulates a 64-port, 16-stage switch); a short
    program still occupies all 16 stages of real hardware, which matters
    for re-circulation delay and pipeline latency.

    [flow_order] is the §3.4 reordering fix: [(index_expr, size)] adds a
    read-only "dummy" register array of [size] entries in a final stage,
    indexed by [index_expr] (typically a flow hash over arrival-stable
    header fields).  Its phantoms force the packets of each flow to leave
    the pipeline in arrival order even when prioritised stateless packets
    would otherwise overtake queued stateful ones.

    [Error msg] when a stage that accesses several arrays under guards
    that are not mutually exclusive cannot be split within
    [limits.max_stages]: [msg] names the stage, its arrays, the stages
    the split program needs and [max_stages]. *)

val transform :
  ?limits:Mp5_banzai.Capability.limits ->
  ?pad_to_stages:int ->
  ?flow_order:Mp5_banzai.Expr.t * int ->
  Mp5_banzai.Config.t ->
  t
(** {!create}, raising [Invalid_argument msg] where it returns
    [Error msg]. *)

val pp : Format.formatter -> t -> unit
