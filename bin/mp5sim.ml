(* mp5sim: run a packet-processing program on the MP5 simulator (or one
   of its baselines) against a generated or replayed workload, verify
   functional equivalence against the logical single-pipeline switch,
   and report throughput and queueing statistics.  Each kind of run is a
   subcommand that takes only the flags it reads, so a flag that a run
   would ignore is a usage error by construction. *)

open Cmdliner
module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Monitor = Mp5_fault.Monitor

(* The message on stderr, then exit [code]: 1 usage, 2 input, 3
   validation (see the EXIT STATUS sections below). *)
let fail code fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit code)
    fmt

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Typed converters: a malformed or out-of-range value is a parse
   error, before any run starts. --- *)

let checked parse print ok what =
  Arg.conv'
    ( (fun s ->
        match parse s with
        | Some x when ok x -> Ok x
        | _ -> Error (Printf.sprintf "expected %s, got %S" what s)),
      print )

let int_in ok what = checked int_of_string_opt Format.pp_print_int ok what
let pos_int = int_in (fun n -> n > 0) "a positive integer"
let secs ok what = checked float_of_string_opt Format.pp_print_float ok what

let mode_conv =
  Arg.enum
    [
      ("mp5", Sim.Mp5);
      ("static", Sim.Static_shard);
      ("no-d4", Sim.No_d4);
      ("naive", Sim.Naive_single);
      ("ideal", Sim.Ideal);
    ]

(* --- Program: --app xor --file. --- *)

type program = App of string | File of string

let program_flags =
  Term.(
    const (fun app file -> (app, file))
    $ Arg.(
        value
        & opt (some string) None
        & info [ "app" ] ~docv:"NAME" ~doc:"Built-in program name (see $(b,mp5sim apps)).")
    $ Arg.(
        value & opt (some non_dir_file) None & info [ "file" ] ~docv:"FILE" ~doc:"Domino source file."))

let one_program = function
  | Some app, None -> `Ok (App app)
  | None, Some file -> `Ok (File file)
  | Some _, Some _ -> `Error (true, "--app and --file are mutually exclusive")
  | None, None -> `Error (true, "pass --app NAME or --file FILE")

let program = Term.(ret (const one_program $ program_flags))

(* A compiled program; [app] names a built-in, whose flow traces the
   generated workloads use. *)
type loaded = { sw : Switch.t; app : string option }

let load prog =
  let compile label app src =
    match Switch.create src with
    | Ok sw -> { sw; app }
    | Error msg -> fail 2 "%s: %s" label msg
  in
  match prog with
  | App name -> (
      match List.assoc_opt name Mp5_apps.Sources.all_named with
      | Some src -> compile name (Some name) src
      | None -> fail 2 "unknown app %S; try 'mp5sim apps'" name)
  | File path -> compile path None (read_file path)

(* --- Workload: the generated traffic, or a replayed trace file. --- *)

type workload = { k : int; packets : int; seed : int; pkt_bytes : int; skewed : bool }

let k_arg =
  Arg.(
    value
    & opt (int_in (fun k -> k >= 1 && k <= 64) "a pipeline count from 1 to 64") 4
    & info [ "k"; "pipelines" ] ~docv:"K" ~doc:"Number of pipelines, 1 to 64.")

let packets_info = Arg.info [ "n"; "packets" ] ~docv:"N" ~doc:"Packets to simulate."
let seed_info = Arg.info [ "seed" ] ~docv:"S" ~doc:"Random seed."
let default_packets = 20000 and default_seed = 1 and default_pkt_bytes = 64
let packets_arg = Arg.(value & opt pos_int default_packets packets_info)
let seed_arg = Arg.(value & opt int default_seed seed_info)

(* The generation flags as given: [None] (or [false]) when absent, so a
   flag the workload would not read can be refused. *)
let workload_flags =
  Term.(
    const (fun k packets seed pkt_bytes skewed -> (k, packets, seed, pkt_bytes, skewed))
    $ k_arg
    $ Arg.(value & opt (some ~none:(string_of_int default_packets) pos_int) None packets_info)
    $ Arg.(value & opt (some ~none:(string_of_int default_seed) int) None seed_info)
    $ Arg.(
        value
        & opt (some ~none:(string_of_int default_pkt_bytes) pos_int) None
        & info [ "pkt-bytes" ] ~docv:"B" ~doc:"Packet size of the synthetic trace of a --file program.")
    $ Arg.(
        value & flag
        & info [ "skewed" ] ~doc:"Skewed state access pattern in the synthetic trace of a --file program."))

(* The program, its workload and the trace to replay, if any.  Each
   generation flag shapes only some traces: [--skewed] and [--pkt-bytes]
   the synthetic trace of a --file program (an --app gets flow traffic),
   and none of [--seed], [--packets], [--skewed], [--pkt-bytes] a
   replayed --trace-file.  Passing one where it would be dropped is a
   usage error. *)
let inputs trace_file =
  let check prog (k, packets, seed, pkt_bytes, skewed) trace_file =
    let synthetic = skewed || Option.is_some pkt_bytes in
    match (prog, trace_file) with
    | _, Some _ when synthetic || Option.is_some packets || Option.is_some seed ->
        `Error
          ( true,
            "--seed, --packets, --skewed and --pkt-bytes shape a generated trace, not a \
             --trace-file" )
    | App _, _ when synthetic ->
        `Error
          ( true,
            "--skewed and --pkt-bytes shape the synthetic trace of a --file program, not an \
             --app's flow traffic" )
    | _ ->
        let w =
          {
            k;
            packets = Option.value packets ~default:default_packets;
            seed = Option.value seed ~default:default_seed;
            pkt_bytes = Option.value pkt_bytes ~default:default_pkt_bytes;
            skewed;
          }
        in
        `Ok (prog, w, trace_file)
  in
  Term.(ret (const check $ program $ workload_flags $ trace_file))

let mode =
  Arg.(
    value & opt mode_conv Sim.Mp5
    & info [ "mode" ] ~docv:"MODE" ~doc:"mp5, static, no-d4, naive or ideal.")

let params w mode = { (Sim.default_params ~k:w.k) with mode }

let trace_file ~doc = Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)

let replay_doc = "Replay a packet trace (lines of: time port field...) instead of generating one."

(* The synthetic workload of a --file program; a built-in app gets flow
   traffic shaped for its header layout. *)
let sensitivity_spec l w : Mp5_workload.Tracegen.sensitivity_spec =
  let n_fields = (Switch.config l.sw).Mp5_banzai.Config.n_user_fields in
  {
    n_packets = w.packets;
    k = w.k;
    pkt_bytes = w.pkt_bytes;
    n_fields;
    index_fields = List.init n_fields Fun.id;
    reg_size = 512;
    pattern = (if w.skewed then Mp5_workload.Tracegen.Skewed else Uniform);
    n_ports = 64;
    seed = w.seed;
  }

let generated_trace l w =
  match l.app with
  | Some name ->
      Mp5_apps.Traces.trace_for name
        (Mp5_workload.Tracegen.flows ~seed:w.seed ~n_packets:w.packets ~k:w.k ~concurrency:64 ())
  | None -> Mp5_workload.Tracegen.sensitivity (sensitivity_spec l w)

let array_trace l w = function
  | None -> generated_trace l w
  | Some path -> (
      match Mp5_workload.Trace_io.load ~path with
      | Ok trace -> Mp5_banzai.Machine.sort_trace trace
      | Error e -> fail 2 "%s" e)

(* --fault-plan accepts a plan file or an inline ;-separated event list. *)
let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject faults from PLAN: a plan file, or an inline ;-separated event list (e.g. \
           'seed 7; down @800 pipe=1; up @2400 pipe=1').  See lib/fault for the format.  \
           Functional equivalence is not enforced under injected faults.")

let load_plan what load parse = function
  | None -> None
  | Some arg -> (
      match if Sys.file_exists arg then load ~path:arg else parse arg with
      | Ok p -> Some p
      | Error e -> fail 2 "mp5sim: bad %s: %s" what e)

let fault_plan = load_plan "fault plan" Mp5_fault.Fault.load Mp5_fault.Fault.parse

(* --- Instruments of one switch run. --- *)

type instruments = {
  metrics_file : string option;
  metrics_prom : string option;
  trace_out : string option;
  trace_packets : int list;
  trace_cap : int;
  report : bool;
  profile : Mp5_obs.Prof.mode option;
  profile_out : string option;
  trace_perfetto : string option;
  monitor : bool;
  monitor_dump : string option;
  monitor_epoch : int;
}

let monitor_epoch_arg =
  Arg.(
    value & opt pos_int 64
    & info [ "monitor-epoch" ] ~docv:"CYCLES" ~doc:"Cycles between monitor check passes.")

let out_file name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let instruments =
  Term.(
    const
      (fun
        metrics_file
        metrics_prom
        trace_out
        trace_packets
        trace_cap
        report
        profile
        profile_out
        trace_perfetto
        monitor
        monitor_dump
        monitor_epoch
      ->
        {
          metrics_file;
          metrics_prom;
          trace_out;
          trace_packets;
          trace_cap;
          report;
          profile;
          profile_out;
          trace_perfetto;
          monitor;
          monitor_dump;
          monitor_epoch;
        })
    $ out_file "metrics"
        "Write per-run telemetry (utilization, stall attribution, latency/occupancy \
         histograms) as mp5-metrics/1 JSON."
    $ out_file "metrics-prom" "Write the same telemetry in Prometheus text exposition format."
    $ out_file "trace"
        "Write a structured packet-event trace (mp5-trace/1 JSONL: arrivals, stage entries, \
         crossbar transfers, phantom blocks/deliveries, deliveries, drops, remaps)."
    $ Arg.(
        value & opt (list int) []
        & info [ "trace-packets" ] ~docv:"IDS"
            ~doc:
              "Restrict --trace to these packet ids (comma-separated); system events such as \
               remaps are always recorded.")
    $ Arg.(
        value & opt pos_int 65536
        & info [ "trace-cap" ] ~docv:"N"
            ~doc:
              "Event-trace ring capacity; older events are overwritten beyond this (the JSONL \
               header reports truncation).")
    $ Arg.(
        value & flag
        & info [ "report" ]
            ~doc:
              "Print a one-screen run report (utilization, stall attribution, latency \
               percentiles, drops by cause).")
    $ Arg.(
        value
        & opt ~vopt:(Some Mp5_obs.Prof.Sampled)
            (some (enum [ ("sampled", Mp5_obs.Prof.Sampled); ("full", Mp5_obs.Prof.Full) ]))
            None
        & info [ "profile" ] ~docv:"MODE"
            ~doc:
              "Attach the wall-clock span profiler: one span per cycle phase.  The mode, \
               'sampled' (the default) or 'full', is a label recorded in the profile; both \
               record the same spans.  Results are bit-identical with profiling on or off.  \
               Prints a one-screen phase report unless an output file is given.")
    $ out_file "profile-out"
        "Write the profile as a validated mp5-prof/1 JSON snapshot (per-phase/per-domain \
         totals, duration histograms, GC counters); implies --profile."
    $ out_file "trace-perfetto"
        "Write the profile as Chrome trace-event JSON loadable in Perfetto (one track per \
         domain: spans plus instants for remaps, checkpoints and fault edges); implies \
         --profile."
    $ Arg.(
        value & flag
        & info [ "monitor" ]
            ~doc:
              "Attach the runtime invariant monitor (packet conservation, flow affinity, FIFO \
               bounds, phantom accounting); a violation aborts the run with a diagnostic and \
               exit code 3.")
    $ out_file "monitor-dump"
        "Write the monitor verdict (and the last diagnostic, if any) to FILE; implies \
         --monitor."
    $ monitor_epoch_arg)

(* The instruments the flags ask for, created for [sw], and what a run
   does with them at its end ([emit]) or on a monitor violation. *)
type attached = {
  metrics : Mp5_obs.Metrics.t option;
  events : Mp5_obs.Trace.t option;
  mon : Monitor.t option;
  prof : Mp5_obs.Prof.t option;
  violation : 'a. string -> 'a;
  emit : unit -> unit;
}

let attach (sw : Switch.t) ~k i =
  let metrics =
    if i.metrics_file <> None || i.metrics_prom <> None || i.report || i.monitor
       || i.monitor_dump <> None
    then
      let stages = Array.length sw.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
      Some (Mp5_obs.Metrics.create ~stages ~k)
    else None
  in
  let events =
    Option.map
      (fun _ ->
        let packets = match i.trace_packets with [] -> None | ids -> Some ids in
        Mp5_obs.Trace.create ~capacity:i.trace_cap ?packets ())
      i.trace_out
  in
  let mon =
    if i.monitor || i.monitor_dump <> None then
      Some (Monitor.create ~epoch:i.monitor_epoch ?events ())
    else None
  in
  (* --profile-out / --trace-perfetto imply --profile (sampled). *)
  let prof =
    match (i.profile, i.profile_out, i.trace_perfetto) with
    | Some mode, _, _ -> Some (Mp5_obs.Prof.create ~mode ())
    | None, None, None -> None
    | None, _, _ -> Some (Mp5_obs.Prof.create ~mode:Mp5_obs.Prof.Sampled ())
  in
  let write path s = with_out path (fun oc -> output_string oc s) in
  let dump_monitor () =
    match (mon, i.monitor_dump) with
    | Some m, Some path -> write path (Monitor.summary m ^ "\n")
    | _ -> ()
  in
  let write_trace () =
    match (events, i.trace_out) with
    | Some tr, Some path -> with_out path (fun oc -> Mp5_obs.Trace.write_jsonl tr oc)
    | _ -> ()
  in
  (* A violation aborts the run: the diagnostic goes to stderr and the
     verdict and event trace are still written. *)
  let violation diag =
    dump_monitor ();
    write_trace ();
    fail 3 "%s" diag
  in
  let emit () =
    Option.iter (fun m -> Format.printf "%s@." (Monitor.summary m)) mon;
    dump_monitor ();
    Option.iter
      (fun m ->
        (match Mp5_obs.Metrics.validate m with
        | Ok () -> ()
        | Error e -> fail 3 "metrics invariant violation: %s" e);
        Option.iter (fun path -> write path (Mp5_obs.Metrics.json_string m)) i.metrics_file;
        Option.iter (fun path -> write path (Mp5_obs.Metrics.to_prometheus m)) i.metrics_prom;
        if i.report then Format.printf "%a" Mp5_obs.Metrics.pp m)
      metrics;
    Option.iter
      (fun pf ->
        (match Mp5_obs.Prof.validate pf with
        | Ok () -> ()
        | Error e -> fail 3 "profile invariant violation: %s" e);
        (* Re-validate the serialized snapshot before writing it: CI
           treats the emitted file as already checked. *)
        let js = Mp5_obs.Prof.json_string pf in
        (match Mp5_obs.Prof.validate_json js with
        | Ok () -> ()
        | Error e -> fail 3 "profile snapshot failed validation: %s" e);
        Option.iter (fun path -> write path js) i.profile_out;
        Option.iter (fun path -> write path (Mp5_obs.Prof.chrome_string pf)) i.trace_perfetto;
        if i.report || (i.profile_out = None && i.trace_perfetto = None) then
          Format.printf "%a" Mp5_obs.Prof.pp pf)
      prof;
    write_trace ();
    match mon with Some m when not (Monitor.ok m) -> exit 3 | _ -> ()
  in
  { metrics; events; mon; prof; violation; emit }

(* A run that rejects its parameters is a usage error; a monitor
   violation exits 3. *)
let guarded a f =
  try f () with
  | Invalid_argument msg -> fail 1 "mp5sim: %s" msg
  | Monitor.Violation diag -> a.violation diag

(* --- Streaming: checkpoints, heartbeats, resume and supervision. --- *)

type checkpoint = {
  every : int option;
  snapshot : string option;
  keep : int;
  heartbeat : string option;
  heartbeat_every : int;
  stop_at : int option;
}

let every_info =
  Arg.info [ "checkpoint-every" ] ~docv:"CYCLES"
    ~doc:
      "Write a full machine snapshot to --snapshot every CYCLES simulated cycles (atomic \
       replace; the file always holds the last completed checkpoint)."

let snapshot_info =
  Arg.info [ "snapshot" ] ~docv:"FILE"
    ~doc:
      "Snapshot file written by --checkpoint-every, and on an interrupt (format mp5-snap/1: \
       versioned, length- and checksum-framed)."

let checkpoint_rest =
  Term.(
    const (fun keep heartbeat heartbeat_every stop_at ->
        { every = None; snapshot = None; keep; heartbeat; heartbeat_every; stop_at })
    $ Arg.(
        value & opt pos_int 2
        & info [ "keep-snapshots" ] ~docv:"N"
            ~doc:
              "Rotation depth for --snapshot: keep the last N snapshots as FILE, FILE.1, ...  \
               A resume falls back down the chain when a newer snapshot fails validation.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "heartbeat" ] ~docv:"FILE"
            ~doc:
              "Liveness beat file, rewritten in place every --heartbeat-every cycles (for a \
               watchdog).")
    $ Arg.(
        value & opt pos_int 1000
        & info [ "heartbeat-every" ] ~docv:"CYCLES" ~doc:"Cycles between heartbeats.")
    $ Arg.(
        value
        & opt (some pos_int) None
        & info [ "stop-at" ] ~docv:"CYCLES"
            ~doc:
              "Testing hook: suspend the leg after CYCLES visited cycles exactly as a SIGINT \
               would: flush a final snapshot (with --snapshot) and exit 4."))

(* The one cross-flag check left: periodic checkpoints need a file. *)
let checkpoint =
  Term.(
    ret
      (const (fun every snapshot rest ->
           match (every, snapshot) with
           | Some _, None -> `Error (true, "--checkpoint-every requires --snapshot FILE")
           | _ -> `Ok { rest with every; snapshot })
      $ Arg.(value & opt (some pos_int) None every_info)
      $ Arg.(value & opt (some string) None snapshot_info)
      $ checkpoint_rest))

let stream_doc =
  "a run driven from a pull-based packet source instead of a materialized trace: memory \
   stays constant at any packet count.  Functional equivalence against the golden switch is \
   not checked (the trace is never held in memory); the run reports exit/access digests \
   instead"

let stream_trace_doc = replay_doc ^ "  '-' reads the trace from stdin (times must be nondecreasing)."

let stream_source l w = function
  | Some "-" -> Mp5_workload.Trace_io.stream_channel ~path:"<stdin>" stdin
  | Some path -> (
      match Mp5_workload.Trace_io.stream ~path with Ok s -> s | Error e -> fail 2 "%s" e)
  | None -> (
      match l.app with
      | Some name ->
          Mp5_workload.Tracegen.flow_source ~seed:w.seed ~n_packets:w.packets ~k:w.k
            ~concurrency:64 ~fill:(Mp5_apps.Traces.fill name) ()
      | None -> Mp5_workload.Tracegen.sensitivity_source (sensitivity_spec l w))

type start = Fresh of Sim.params * Mp5_fault.Fault.plan option | From of string

(* One streaming leg.  SIGINT/SIGTERM flip the graceful-stop flag: the
   run pauses at the next cycle boundary, flushes a final snapshot and
   exits 4, so a later resume continues bit-identically.  [kill_at] is
   the supervised crash-testing hook: the leg SIGKILLs itself there. *)
let stream_leg l w trace_file i ck ?kill_at start =
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  let a = attach l.sw ~k:w.k i in
  (* Durable checkpoints: tmp file + fsync + atomic rename + directory
     fsync, rotating the previous snapshots down the [path], [path.1],
     ... chain so recovery can fall back past a torn newest snapshot. *)
  let write_snapshot path snap =
    Mp5_util.Binio.write_rotated ~fsync:true ~path ~keep:ck.keep snap
  in
  let hb = Option.map (fun p -> Mp5_robust.Supervisor.Heartbeat.create ~path:p) ck.heartbeat in
  let on_heartbeat =
    match (hb, kill_at) with
    | None, None -> None
    | _ ->
        Some
          (fun ~cycle ->
            (match kill_at with
            | Some c when cycle >= c -> Unix.kill (Unix.getpid ()) Sys.sigkill
            | _ -> ());
            Option.iter (fun h -> Mp5_robust.Supervisor.Heartbeat.beat h ~cycle) hb)
  in
  let on_checkpoint = Option.map (fun path ~cycle:_ snap -> write_snapshot path snap) ck.snapshot in
  let source = stream_source l w trace_file in
  let outcome =
    try
      guarded a (fun () ->
          match start with
          | From snapshot -> (
              match
                Sim.resume ?metrics:a.metrics ?events:a.events ?monitor:a.mon ?prof:a.prof
                  ?checkpoint_every:ck.every ?on_checkpoint ~heartbeat_every:ck.heartbeat_every
                  ?on_heartbeat ~stop ?cycle_budget:ck.stop_at ~snapshot l.sw.prog source
              with
              | Ok o -> o
              | Error (Sim.Corrupt msg) -> fail 2 "mp5sim: corrupt snapshot: %s" msg
              | Error (Sim.Mismatch msg) -> fail 3 "mp5sim: snapshot mismatch: %s" msg)
          | Fresh (params, fault) ->
              Sim.run_source ?metrics:a.metrics ?events:a.events ?fault ?monitor:a.mon
                ?prof:a.prof ?checkpoint_every:ck.every ?on_checkpoint
                ~heartbeat_every:ck.heartbeat_every ?on_heartbeat ~stop ?cycle_budget:ck.stop_at
                params l.sw.prog source)
    with Mp5_workload.Packet_source.Error msg -> fail 2 "%s" msg
  in
  match outcome with
  | Sim.Suspended snap -> (
      match ck.snapshot with
      | Some path ->
          write_snapshot path snap;
          fail 4 "mp5sim: interrupted; snapshot flushed to %s (resume with 'mp5sim resume %s')"
            path path
      | None -> fail 4 "mp5sim: interrupted (no --snapshot: state discarded)")
  | Sim.Completed s ->
      Format.printf "%d pipelines, %d packets (streamed): throughput %.3f, max queue %d, dropped %d@."
        w.k s.s_packets s.s_normalized_throughput s.s_max_queue s.s_dropped;
      Format.printf "digests: exits %016x, access %016x@." s.s_digests.dg_exits
        s.s_digests.dg_access;
      a.emit ();
      exit 0

(* --- Subcommands. --- *)

let run (prog, w, trace_file) mode i fault =
  let l = load prog in
  let plan = fault_plan fault in
  let trace = array_trace l w trace_file in
  let a = attach l.sw ~k:w.k i in
  let r, rep =
    guarded a (fun () ->
        Switch.verify ~params:(params w mode) ?metrics:a.metrics ?events:a.events ?fault:plan
          ?monitor:a.mon ?prof:a.prof ~k:w.k l.sw trace)
  in
  Format.printf "%d pipelines, %d packets: throughput %.3f, max queue %d, dropped %d@.%a@." w.k
    (Array.length trace) r.normalized_throughput r.max_queue r.dropped Mp5_core.Equiv.pp rep;
  a.emit ();
  (* A fault plan makes the run intentionally lossy, so functional
     equivalence against the unfaulted golden switch is not enforced. *)
  exit (if Mp5_core.Equiv.equivalent rep || mode <> Sim.Mp5 || plan <> None then 0 else 3)

(* [runs] independently seeded traces (seed, seed+1, ...) spread over
   [jobs] domains.  Compiled switches are immutable at runtime and each
   run builds its own state; the pool's order-preserving map keeps the
   report identical at any job count. *)
let sweep (prog, w, _) mode runs jobs =
  let l = load prog in
  let pool = if jobs > 1 then Some (Mp5_util.Pool.create ~jobs) else None in
  let one i =
    let w = { w with seed = w.seed + i } in
    let r, rep = Switch.verify ~params:(params w mode) ~k:w.k l.sw (generated_trace l w) in
    (w.seed, r.Sim.normalized_throughput, r.Sim.dropped, Mp5_core.Equiv.equivalent rep)
  in
  let results =
    match pool with Some p -> Mp5_util.Pool.init p runs one | None -> Array.init runs one
  in
  Option.iter Mp5_util.Pool.shutdown pool;
  Array.iter
    (fun (s, thr, dropped, equiv) ->
      Format.printf "seed %d: throughput %.3f, dropped %d%s@." s thr dropped
        (if equiv then "" else " NOT-EQUIVALENT"))
    results;
  let mean = Array.fold_left (fun acc (_, t, _, _) -> acc +. t) 0.0 results /. float_of_int runs in
  Format.printf "%d pipelines, %d runs x %d packets (%d domains): mean throughput %.3f@." w.k runs
    w.packets jobs mean;
  let all_equiv = Array.for_all (fun (_, _, _, e) -> e) results in
  exit (if all_equiv || mode <> Sim.Mp5 then 0 else 3)

let recirc (prog, w, trace_file) =
  let l = load prog in
  let trace = array_trace l w trace_file in
  let golden = Switch.golden l.sw trace in
  let r = Mp5_core.Recirc.run ~k:w.k l.sw.prog trace in
  let rep =
    Mp5_core.Equiv.compare ~golden ~n_packets:(Array.length trace) ~store:r.store
      ~headers_out:r.headers_out ~access_seqs:r.access_seqs ~exit_order:r.exit_order ()
  in
  Format.printf "recirculation baseline: throughput %.3f, %.2f recirculations/packet@.%a@."
    r.normalized_throughput r.avg_recirculations Mp5_core.Equiv.pp rep;
  exit 0

let stream (prog, w, trace_file) mode i fault ck =
  let l = load prog in
  let plan = fault_plan fault in
  stream_leg l w trace_file i ck (Fresh (params w mode, plan))

(* The snapshot fixes the mode and the fault plan; the source is rebuilt
   from the same flags (or trace file), and its consumed prefix is
   replayed and checked against the snapshot's input digest.  The
   rotation chain is walked newest-first, so a torn newest snapshot
   falls back to the previous slot. *)
let resume (prog, w, trace_file) i ck path =
  let l = load prog in
  match Mp5_util.Binio.load_latest_valid ~magic:Sim.snapshot_magic ~path ~keep:ck.keep with
  | Ok (slot, contents) ->
      if slot <> path then Format.eprintf "mp5sim: falling back to snapshot %s@." slot;
      stream_leg l w trace_file i ck (From contents)
  | Error msg -> fail 2 "mp5sim: cannot read snapshot: %s" msg

let supervise (prog, w, trace_file) mode i fault ck (max_restarts, hang_timeout, backoff, kills) =
  let l = load prog in
  let plan = fault_plan fault in
  let snapshot_path = Option.get ck.snapshot in
  (* The parent only watches: a Ctrl-C reaches the child too (same
     process group), which flushes its final snapshot and exits 4 — not
     retryable, so the verdict propagates the code. *)
  let ignore_sig = Sys.Signal_handle (fun _ -> ()) in
  Sys.set_signal Sys.sigint ignore_sig;
  Sys.set_signal Sys.sigterm ignore_sig;
  let d = Mp5_robust.Supervisor.default ~snapshot_path in
  let ck = { ck with heartbeat = Some (Option.value ck.heartbeat ~default:d.heartbeat_path) } in
  let cfg =
    {
      d with
      heartbeat_path = Option.get ck.heartbeat;
      keep_snapshots = ck.keep;
      hang_timeout;
      max_restarts;
      backoff_base = backoff;
      log = (fun line -> Format.eprintf "%s@." line);
    }
  in
  let child ~attempt ~resume =
    stream_leg l w trace_file i ck ?kill_at:(List.nth_opt kills attempt)
      (match resume with None -> Fresh (params w mode, plan) | Some (_, snap) -> From snap)
  in
  match Mp5_robust.Supervisor.supervise cfg ~child with
  | Completed _ -> exit 0
  | Failed { last = Exited c; _ } -> exit c
  | Failed _ | Gave_up _ -> exit 5

let fabric spec prog k mode packets seed epoch plan rate sabotage =
  let topo =
    match Mp5_fabric.Topology.of_spec spec with
    | Ok topo -> topo
    | Error e -> fail 2 "mp5sim: bad topology spec: %s" e
  in
  match prog with
  | None ->
      Format.printf "%a@." Mp5_fabric.Topology.pp topo;
      Format.printf "%a@." Mp5_fabric.Routing.pp (Mp5_fabric.Routing.shortest_paths topo);
      exit 0
  | Some prog -> (
      let l = load prog in
      let lplan =
        Option.value ~default:Mp5_fault.Linkplan.empty
          (load_plan "link plan" Mp5_fault.Linkplan.load Mp5_fault.Linkplan.parse plan)
      in
      (match Mp5_fault.Linkplan.validate lplan ~n_links:(Mp5_fabric.Topology.n_links topo) with
      | Ok () -> ()
      | Error e -> fail 2 "mp5sim: bad link plan: %s" e);
      let n_fields = (Switch.config l.sw).Mp5_banzai.Config.n_user_fields in
      let spec =
        {
          (Mp5_fabric.Traffic.default_spec topo) with
          n_packets = packets;
          n_fields;
          per_cycle = Option.value rate ~default:(max 1 (Mp5_fabric.Topology.n_hosts topo / 2));
          index_fields = List.init n_fields Fun.id;
          reg_size = 512;
          seed;
        }
      in
      let fparams =
        {
          Mp5_fabric.Fabric.fp_sim = { (Sim.default_params ~k) with mode };
          fp_topo = topo;
          fp_policy = Mp5_fabric.Routing.shortest_paths topo;
          fp_plan = lplan;
        }
      in
      let mon = Monitor.create ~epoch () in
      match
        Mp5_fabric.Fabric.run ~monitor:mon
          ~sabotage:(if sabotage then 1 else 0)
          ~dst:(Mp5_fabric.Traffic.dst_of_input spec) fparams l.sw.prog
          (Mp5_fabric.Traffic.source spec)
      with
      | exception Monitor.Violation diag -> fail 3 "%s" diag
      | exception Invalid_argument msg -> fail 1 "mp5sim: %s" msg
      | Mp5_fabric.Fabric.Suspended _ -> assert false (* no cycle budget attached *)
      | Mp5_fabric.Fabric.Completed r ->
          Format.printf "%a@." Mp5_fabric.Fabric.pp_result r;
          Format.printf "%s@." (Monitor.summary mon);
          exit (if Monitor.ok mon then 0 else 3))

(* --- Command line. --- *)

let exits n =
  List.filteri
    (fun code _ -> code < n)
    Cmd.Exit.
      [
        info 0 ~doc:"on success.";
        info 1
          ~doc:
            "on usage errors: a flag the subcommand does not take, a malformed or out-of-range \
             value, a missing program or required flag, or a parameter the run rejects.";
        info 2
          ~doc:
            "on input errors (unknown app, a program that does not compile or does not fit the \
             stage budget, malformed trace file, fault plan or snapshot).";
        info 3
          ~doc:
            "on validation failures (functional non-equivalence, a snapshot taken against a \
             different program or stream, metrics or runtime-monitor invariant violations).";
        info 4
          ~doc:
            "when a streaming run is interrupted (SIGINT/SIGTERM or --stop-at) after flushing a \
             final snapshot; continue it with $(b,mp5sim resume).";
        info 5
          ~doc:
            "when $(b,mp5sim supervise) exhausts its restart budget; the latest valid snapshot \
             is kept for post-mortem resumption.";
      ]

let cmd name ~doc ~exit_codes term = Cmd.v (Cmd.info name ~doc ~exits:(exits exit_codes)) term
let stream_trace = trace_file ~doc:stream_trace_doc

let supervised_checkpoint =
  Term.(
    const (fun every snapshot rest -> { rest with every = Some every; snapshot = Some snapshot })
    $ Arg.(required & opt (some pos_int) None every_info)
    $ Arg.(required & opt (some string) None snapshot_info)
    $ checkpoint_rest)

let supervisor_knobs =
  let d = Mp5_robust.Supervisor.default ~snapshot_path:"" in
  Term.(
    const (fun max_restarts hang_timeout backoff kills -> (max_restarts, hang_timeout, backoff, kills))
    $ Arg.(
        value
        & opt (int_in (fun n -> n >= 0) "a non-negative integer") d.max_restarts
        & info [ "max-restarts" ] ~docv:"N" ~doc:"Restart budget.")
    $ Arg.(
        value
        & opt (secs (fun x -> x > 0.) "a positive number of seconds") d.hang_timeout
        & info [ "hang-timeout" ] ~docv:"SECS"
            ~doc:"Seconds without a heartbeat before the watchdog SIGKILLs the leg.")
    $ Arg.(
        value
        & opt (secs (fun x -> x >= 0.) "a non-negative number of seconds") d.backoff_base
        & info [ "backoff" ] ~docv:"SECS"
            ~doc:"Base restart delay; doubles per restart, capped at 2s.")
    $ Arg.(
        value & opt (list int) []
        & info [ "chaos-kill-at" ] ~docv:"C0,C1,..."
            ~doc:
              "Testing hook: leg i SIGKILLs itself at cycle Ci (legs beyond the list run \
               clean), proving crash recovery end to end."))

(* Without --print the fabric runs the program; --print, like --help,
   shows the topology and routing and reads no other flag. *)
let fabric_program =
  Term.(
    ret
      (const (fun print flags ->
           if print then `Ok None
           else match one_program flags with `Ok p -> `Ok (Some p) | `Error e -> `Error e)
      $ Arg.(
          value & flag
          & info [ "print" ]
              ~doc:"Print the parsed topology and derived routing policy and exit; no program is needed.")
      $ program_flags))

let commands =
  [
    cmd "run" ~exit_codes:4
      ~doc:"one run on a materialized trace, verified against the golden switch"
      Term.(
        const run $ inputs (trace_file ~doc:replay_doc) $ mode $ instruments $ fault_plan_arg);
    cmd "sweep" ~exit_codes:4 ~doc:"verified runs on several seeds, spread over domains"
      Term.(
        const sweep $ inputs (const None) $ mode
        $ Arg.(
            value & opt pos_int 1
            & info [ "runs" ] ~docv:"R"
                ~doc:
                  "Repeat on R generated traces seeded seed, seed+1, ... and report per-run and \
                   mean throughput.")
        $ Arg.(
            value & opt pos_int 1
            & info [ "jobs" ] ~docv:"N"
                ~doc:"Domains that spread the seeds; results are independent of N."));
    cmd "recirc" ~exit_codes:3
      ~doc:"the re-circulation baseline (D3), reported against the golden switch"
      Term.(const recirc $ inputs (trace_file ~doc:replay_doc));
    cmd "stream" ~exit_codes:5 ~doc:stream_doc
      Term.(
        const stream $ inputs stream_trace $ mode $ instruments $ fault_plan_arg $ checkpoint);
    cmd "resume" ~exit_codes:5
      ~doc:
        "continue a streaming run from a snapshot; the result is bit-identical to the \
         uninterrupted run"
      Term.(
        const resume $ inputs stream_trace $ instruments $ checkpoint
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"FILE"
                ~doc:
                  "Snapshot to resume.  The mode and fault plan come from it; the program and \
                   workload flags must rebuild the same source.  A corrupt snapshot exits 2, \
                   one for a different program, trace or instrumentation exits 3."));
    cmd "supervise" ~exit_codes:6
      ~doc:
        "a streaming run as a supervised child process: a heartbeat watchdog SIGKILLs a hung \
         leg, and a leg that dies by signal or hang restarts from the newest valid snapshot \
         with exponential backoff"
      Term.(
        const supervise $ inputs stream_trace $ mode $ instruments $ fault_plan_arg
        $ supervised_checkpoint $ supervisor_knobs);
    cmd "fabric" ~exit_codes:4
      ~doc:
        "a multi-switch fabric: every switch runs the program as its own simulator, joined by \
         delay-carrying links, with fabric-wide packet conservation checked every \
         --monitor-epoch cycles"
      Term.(
        const fabric
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"SPEC"
                ~doc:
                  "Topology: 'line:4,hosts=2,delay=1', 'tree:depth=2,fanout=2,hosts=1', \
                   'fattree:4', 'leafspine:2x2,hosts=2,delay=1', or an explicit edge list \
                   'edges:h0-s0;s0-s1:2;s1-h1'.  Traffic is seeded host-to-host; routing is \
                   shortest-path.")
        $ fabric_program $ k_arg $ mode $ packets_arg $ seed_arg $ monitor_epoch_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "plan" ] ~docv:"PLAN"
                ~doc:
                  "Link fault schedule: a plan file or an inline ;-separated event list (e.g. \
                   'link-down @50..200 link=4; link-delay @0..100 link=2 extra=3').  Sends \
                   attempted on a downed link are counted drops.")
        $ Arg.(
            value
            & opt (some pos_int) None
            & info [ "rate" ] ~docv:"N"
                ~doc:"Injection rate in packets per cycle (default: half the host count).")
        $ Arg.(
            value & flag
            & info [ "sabotage" ]
                ~doc:
                  "Testing hook: skew the packet accounting before the final conservation \
                   check, demonstrating the violation path (exit 3)."));
    cmd "apps" ~exit_codes:2 ~doc:"list the built-in programs"
      Term.(
        const (fun () -> List.iter (fun (name, _) -> print_endline name) Mp5_apps.Sources.all_named)
        $ const ());
  ]

let () =
  let info = Cmd.info "mp5sim" ~doc:"simulate packet-processing programs on MP5" ~exits:(exits 6) in
  exit
    (match Cmd.eval_value (Cmd.group info commands) with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> Cmd.Exit.internal_error)
