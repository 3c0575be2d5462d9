(** Chaos-soak campaigns: randomized crash-recovery torture for the
    supervised run path.

    A {!case} bundles a generated program (by {!Mp5_fuzz.Progen} seed), a
    fault plan, a trace length, a checkpoint period, and a {e crash
    schedule}: one planned crash per supervision attempt.  {!run_case}
    first computes the uninterrupted oracle summary in-process, then runs
    the same simulation under {!Supervisor.supervise} with the scheduled
    crashes injected from inside the child — [kill -9] at a chosen cycle,
    a checkpoint write torn mid-write / before / after its atomic rename,
    or a wedge that stops the heartbeat until the watchdog fires.  The
    leg that finishes holds the oracle too (forked after it was
    computed): it demands its recovered summary be bit-identical
    ({!Mp5_core.Sim.summary_equal}) and leaves the verdict, ["ok"] or
    the mismatch, in a text file for the parent.

    {!soak} runs many campaigns; any failing case is delta-debugged with
    {!shrink} to a minimal (plan, crash schedule, trace length) and
    written out as a textual repro artifact that {!case_of_string} loads
    back. *)

(** Where inside the checkpoint write the crash lands. *)
type torn_phase =
  | Mid_write  (** tmp file half-written, no rename: [path] slot untouched *)
  | Before_rename  (** tmp complete but never renamed *)
  | After_rename  (** rename done, killed before the directory fsync *)

type crash =
  | Kill_at of int  (** self-[SIGKILL] at the first heartbeat with [cycle >= c] *)
  | Torn_checkpoint of int * torn_phase
      (** tear this leg's [n]-th checkpoint write (1-based), then [SIGKILL] *)
  | Wedge_at of int
      (** stop beating at [cycle >= c] and spin; the watchdog must kill us *)

type case = {
  cs_seed : int;  (** {!Mp5_fuzz.Progen} program and trace seed *)
  cs_k : int;
  cs_packets : int;
  cs_checkpoint_every : int;
  cs_plan : Mp5_fault.Fault.plan;
  cs_crashes : crash list;
      (** crash for supervision attempt [i] is element [i]; attempts
          beyond the list run clean.  Indexing by attempt (not by cycle
          alone) keeps a crash from re-firing when the resumed leg
          replays past its cycle. *)
}

val generate : seed:int -> case
(** Deterministic in [seed]: small [k], a few-hundred-packet trace, a
    short checkpoint period, 0-3 fault events and 1-3 scheduled
    crashes. *)

val pp_case : Format.formatter -> case -> unit
(** One-line summary for campaign logs. *)

val case_to_string : case -> string
(** Textual repro artifact (["mp5-chaos-case/1"]); round-trips through
    {!case_of_string}. *)

val case_of_string : string -> (case, string) result

type outcome = {
  co_restarts : int;
  co_verdict : Supervisor.verdict;
  co_failure : string option;
      (** [None] = the supervised run recovered bit-identically;
          [Some reason] otherwise (digest/counter mismatch, a leg that
          failed, supervisor gave up) *)
}

val run_case :
  dir:string -> ?sabotage:(case -> bool) -> ?log:(string -> unit) -> case -> outcome
(** Run one campaign in [dir] (scratch files are keyed by [cs_seed] and
    overwritten).  [sabotage] is a test hook for exercising the
    shrink-and-repro pipeline end to end deterministically: when
    provided, no processes run at all — the predicate alone decides
    whether the case is reported failed (with an injected reason). *)

val shrink : fails:(case -> bool) -> ?budget:int -> case -> case * int
(** Greedy delta-debugging: repeatedly drop fault-plan events and
    scheduled crashes and halve the trace length, keeping every
    reduction for which [fails] still holds, to a fixpoint or until
    [budget] (default 256) probes are spent.  The input case must fail.
    Returns the minimal failing case and the probe count. *)

val write_repro : dir:string -> case -> reason:string -> string
(** Write [case_to_string] (plus the failure reason as a comment) to
    [dir/chaos-repro-<seed>.txt]; returns the path. *)

type report = {
  rp_campaigns : int;
  rp_crashes : int;  (** scheduled crash events across all campaigns *)
  rp_torn : int;  (** of which torn-checkpoint crashes *)
  rp_wedges : int;  (** of which watchdog wedges *)
  rp_restarts : int;  (** supervisor restarts actually performed *)
  rp_failures : (case * string) list;  (** shrunken failing cases *)
}

val soak :
  dir:string ->
  seed:int ->
  campaigns:int ->
  ?sabotage:(case -> bool) ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Run [campaigns] independent campaigns ({!generate} with seeds
    [seed, seed+1, ...]); each failure is shrunk and written as a repro
    artifact in [dir]. *)
