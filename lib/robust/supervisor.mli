(** Crash-tolerant supervision of a simulation leg.

    {!supervise} runs a caller-provided leg in a forked child process and
    watches it from the parent: a heartbeat file proves liveness (a child
    that stops beating for longer than the hang deadline is [SIGKILL]ed),
    and a child that dies by signal or hangs is restarted from the newest
    {e valid} snapshot in the rotation chain, under a bounded restart
    budget with exponential backoff.  Because checkpoints are durable and
    atomic ({!Mp5_util.Binio.write_rotated}) and the simulator replays
    deterministically from any snapshot, a supervised run that survives
    its crashes ends with counters, store and digests bit-identical to an
    uninterrupted run.

    Every log line the supervisor emits is deterministic — no pids,
    timestamps or measured durations — so tests can pin the exact
    restart/backoff transcript. *)

(** The child side of the liveness protocol: rewrite a small beat file
    in place; the watchdog polls its content for change. *)
module Heartbeat : sig
  type t

  val create : path:string -> t
  (** Open (and truncate) the beat file. *)

  val beat : t -> cycle:int -> unit
  (** Overwrite the file with a fresh [(sequence, cycle)] line.  The
      sequence number guarantees the content changes even if [cycle]
      repeats.  Suitable as a {!Mp5_core.Sim.run_source} [on_heartbeat]
      hook. *)

  val close : t -> unit
end

type child_end =
  | Exited of int  (** child called [exit code] *)
  | Signaled of int  (** killed by signal (OCaml signal number) *)
  | Hung  (** no heartbeat within the deadline; the watchdog [SIGKILL]ed it *)

val pp_child_end : Format.formatter -> child_end -> unit
(** ["exited with code 3"], ["killed by SIGKILL"], ["hung (watchdog)"]. *)

type verdict =
  | Completed of { restarts : int }  (** a leg exited 0 *)
  | Failed of { restarts : int; last : child_end }
      (** a leg exited with a non-zero code: unlike a signal or a hang,
          running it again will not fix bad input *)
  | Gave_up of { restarts : int; last : child_end }
      (** restart budget exhausted; the newest snapshot is kept on disk
          for post-mortem resumption *)

val pp_verdict : Format.formatter -> verdict -> unit

type config = {
  snapshot_path : string;
      (** rotation-chain base path; slots are validated against
          {!Mp5_core.Sim.snapshot_magic} *)
  keep_snapshots : int;  (** rotation depth (≥ 1) *)
  heartbeat_path : string;
  hang_timeout : float;  (** seconds without a beat before SIGKILL *)
  poll_interval : float;  (** watchdog poll period, seconds *)
  max_restarts : int;
  backoff_base : float;  (** first backoff, seconds *)
  backoff_max : float;  (** backoff cap, seconds *)
  log : string -> unit;
}

val default : snapshot_path:string -> config
(** Keep 2, heartbeat at [snapshot_path ^ ".hb"], hang timeout 5s,
    poll 50ms, 5 restarts, backoff 0.1s..2s, log to stderr. *)

val backoff : base:float -> cap:float -> restart:int -> float
(** [min cap (base * 2^(restart-1))] — the delay before restart [n ≥ 1]. *)

val supervise :
  config -> child:(attempt:int -> resume:(string * string) option -> int) -> verdict
(** Run [child] under supervision, from a fresh start: leftover slots
    of the rotation chain and the heartbeat file are deleted first.
    Each leg forks; the child calls [child ~attempt ~resume] (attempt 0
    is the first leg) and must [exit] with its code — [resume] is
    [Some (slot, snapshot)] when a valid snapshot was found in the
    rotation chain (newest valid slot wins: a torn newest snapshot falls
    back to the previous one).  The parent polls the heartbeat file and
    [waitpid]; on a signal or a hang it sleeps the backoff and starts
    the next leg.  Uncaught child exceptions exit with code 125. *)
