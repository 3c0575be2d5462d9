(* mp5sim: run a packet-processing program on the MP5 simulator (or one
   of its baselines) against a generated workload, verify functional
   equivalence against the logical single-pipeline switch, and report
   throughput and queueing statistics. *)

open Cmdliner

let mode_conv =
  let parse = function
    | "mp5" -> Ok Mp5_core.Sim.Mp5
    | "static" -> Ok Mp5_core.Sim.Static_shard
    | "no-d4" -> Ok Mp5_core.Sim.No_d4
    | "naive" -> Ok Mp5_core.Sim.Naive_single
    | "ideal" -> Ok Mp5_core.Sim.Ideal
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Mp5_core.Sim.Mp5 -> "mp5"
      | Static_shard -> "static"
      | No_d4 -> "no-d4"
      | Naive_single -> "naive"
      | Ideal -> "ideal")
  in
  Arg.conv (parse, print)

let apps () = List.map fst Mp5_apps.Sources.all_named

(* A usage error: the message on stderr, exit 1. *)
let usage fmt = Format.kasprintf (fun msg -> Format.eprintf "mp5sim: %s@." msg; exit 1) fmt

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let run app file k mode n_packets pkt_bytes skewed seed recirc list_apps trace_file jobs runs
    _loop metrics_file metrics_prom trace_out trace_packets trace_cap report
    profile profile_out trace_perfetto fault_plan monitor monitor_epoch monitor_dump stream
    checkpoint_every snapshot_path resume_file keep_snapshots supervise heartbeat_file
    heartbeat_every max_restarts hang_timeout backoff stop_at chaos_kill_at fabric fab_print
    fab_plan fab_rate fab_sabotage =
  let pkt_bytes_set = pkt_bytes <> None in
  let pkt_bytes = Option.value pkt_bytes ~default:64 in
  if list_apps then begin
    List.iter print_endline (apps ());
    exit 0
  end;
  (* Numeric flags are range-checked up front, so a bad value is a usage
     error rather than an exception from deep inside a run. *)
  let fails ok = Option.fold ~none:false ~some:(fun x -> not (ok x)) in
  let pos n = n > 0 in
  List.iter
    (fun (bad, msg) -> if bad then usage "%s" msg)
    [
      (jobs < 1, "--jobs expects a positive integer");
      (runs < 1, "--runs expects a positive integer");
      (n_packets < 1, "--packets expects a positive count");
      (k < 1 || k > 64, "-k expects a pipeline count with 1 <= K <= 64");
      (monitor_epoch < 1, "--monitor-epoch expects a positive cycle count");
      (trace_cap < 1, "--trace-cap expects a positive event count");
      (fails pos keep_snapshots, "--keep-snapshots expects a positive count");
      (fails pos checkpoint_every, "--checkpoint-every expects a positive cycle count");
      (fails pos fab_rate, "--fab-rate expects a positive packets/cycle count");
      (fails pos stop_at, "--stop-at expects a positive cycle count");
      (fails pos heartbeat_every, "--heartbeat-every expects a positive cycle count");
      (fails (fun n -> n >= 0) max_restarts, "--max-restarts expects a non-negative count");
      (fails (fun x -> x > 0.) hang_timeout, "--hang-timeout expects a positive number of seconds");
      (fails (fun x -> x >= 0.) backoff, "--backoff expects a non-negative number of seconds");
    ];
  (* A flag that only some kind of run reads is named, not ignored. *)
  let named flags = List.filter_map (fun (set, flag) -> if set then Some flag else None) flags in
  let require ok what flags =
    match named flags with
    | _ :: _ as fl when not ok -> usage "%s is required by %s" what (String.concat ", " fl)
    | _ -> ()
  in
  require supervise "--supervise"
    [
      (max_restarts <> None, "--max-restarts");
      (hang_timeout <> None, "--hang-timeout");
      (backoff <> None, "--backoff");
    ];
  let streaming_only =
    [
      (heartbeat_file <> None, "--heartbeat");
      (heartbeat_every <> None, "--heartbeat-every");
      (snapshot_path <> None, "--snapshot");
      (keep_snapshots <> None, "--keep-snapshots");
      (stop_at <> None, "--stop-at");
      (chaos_kill_at <> [], "--chaos-kill-at");
    ]
  in
  if fabric = None && (fab_print || fab_plan <> None || fab_rate <> None || fab_sabotage)
  then usage "--fab-* flags require --fabric SPEC";
  (* --fabric: compose per-switch simulators over a topology.  The spec
     parses before any program is required, so --fab-print works bare. *)
  let fabric_topo =
    match fabric with
    | None -> None
    | Some spec -> (
        match Mp5_fabric.Topology.of_spec spec with
        | Ok topo -> Some topo
        | Error e ->
            Format.eprintf "mp5sim: bad topology spec: %s@." e;
            exit 2)
  in
  (match fabric_topo with
  | Some topo when fab_print ->
      Format.printf "%a@." Mp5_fabric.Topology.pp topo;
      Format.printf "%a@." Mp5_fabric.Routing.pp (Mp5_fabric.Routing.shortest_paths topo);
      exit 0
  | _ -> ());
  let src =
    match (app, file) with
    | Some name, _ -> (
        match List.assoc_opt name Mp5_apps.Sources.all_named with
        | Some src -> src
        | None ->
            Format.eprintf "unknown app %S; try --list-apps@." name;
            exit 2)
    | None, Some path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
    | None, None ->
        Format.eprintf "pass --app NAME or --file FILE@.";
        exit 1
  in
  let sw =
    match Mp5_core.Switch.create src with
    | Ok sw -> sw
    | Error msg ->
        (* A program that does not compile is an input error, like an
           unknown app; the message carries the source position. *)
        let name = match app with Some n -> n | None -> Option.value file ~default:"" in
        Format.eprintf "%s: %s@." name msg;
        exit 2
  in
  let config = Mp5_core.Switch.config sw in
  (match fabric_topo with
  | None -> ()
  | Some topo ->
      (* Fabric runs are single streamed runs; the switch-level knobs
         that conflict with the fabric driver are usage errors. *)
      if runs > 1 || recirc || stream || supervise || checkpoint_every <> None
         || resume_file <> None || trace_file <> None || fault_plan <> None
      then
        usage
          "--fabric is a single generated-traffic run (drop --runs/--recirc/streaming \
           flags/--trace-file; link faults go through --fab-plan)";
      if jobs > 1 then
        usage "--fabric steps its switches sequentially (--jobs spreads --runs only)";
      (* Per-switch instruments, snapshot/supervision files and the
         synthetic-trace shape have no fabric counterpart: naming the
         flag beats silently ignoring it. *)
      (match
         named
           ([
             (metrics_file <> None, "--metrics");
             (metrics_prom <> None, "--metrics-prom");
             (profile <> None, "--profile");
             (profile_out <> None, "--profile-out");
             (trace_out <> None, "--trace");
             (trace_perfetto <> None, "--trace-perfetto");
             (trace_packets <> [], "--trace-packets");
             (report, "--report");
             (monitor_dump <> None, "--monitor-dump");
            ]
           @ streaming_only
           @ [ (skewed, "--skewed"); (pkt_bytes_set, "--pkt-bytes") ])
       with
      | [] -> ()
      | flags -> usage "--fabric does not support %s" (String.concat ", " flags));
      let lplan =
        match fab_plan with
        | None -> Mp5_fault.Linkplan.empty
        | Some arg -> (
            let parsed =
              if Sys.file_exists arg then Mp5_fault.Linkplan.load ~path:arg
              else Mp5_fault.Linkplan.parse arg
            in
            match parsed with
            | Ok p -> p
            | Error e ->
                Format.eprintf "mp5sim: bad link plan: %s@." e;
                exit 2)
      in
      (match Mp5_fault.Linkplan.validate lplan ~n_links:(Mp5_fabric.Topology.n_links topo) with
      | Ok () -> ()
      | Error e ->
          Format.eprintf "mp5sim: bad link plan: %s@." e;
          exit 2);
      let n_fields = config.Mp5_banzai.Config.n_user_fields in
      let spec =
        {
          (Mp5_fabric.Traffic.default_spec topo) with
          Mp5_fabric.Traffic.n_packets;
          n_fields;
          per_cycle =
            (match fab_rate with
            | Some r -> r
            | None -> max 1 (Mp5_fabric.Topology.n_hosts topo / 2));
          index_fields = List.init n_fields Fun.id;
          reg_size = 512;
          seed;
        }
      in
      let fparams =
        {
          Mp5_fabric.Fabric.fp_sim = { (Mp5_core.Sim.default_params ~k) with mode };
          fp_topo = topo;
          fp_policy = Mp5_fabric.Routing.shortest_paths topo;
          fp_plan = lplan;
        }
      in
      let mon = Mp5_fault.Monitor.create ~epoch:monitor_epoch () in
      let outcome =
        try
          Mp5_fabric.Fabric.run ~monitor:mon
            ~sabotage:(if fab_sabotage then 1 else 0)
            ~dst:(Mp5_fabric.Traffic.dst_of_input spec) fparams sw.Mp5_core.Switch.prog
            (Mp5_fabric.Traffic.source spec)
        with
        | Mp5_fault.Monitor.Violation diag ->
            Format.eprintf "%s@." diag;
            exit 3
        | Invalid_argument msg -> usage "%s" msg
      in
      (match outcome with
      | Mp5_fabric.Fabric.Suspended _ -> assert false (* no cycle budget attached *)
      | Mp5_fabric.Fabric.Completed r ->
          Format.printf "%a@." Mp5_fabric.Fabric.pp_result r;
          Format.printf "%s@." (Mp5_fault.Monitor.summary mon);
          exit (if Mp5_fault.Monitor.ok mon then 0 else 3)));
  (* --fault-plan accepts a plan file or an inline ;-separated event
     list; parse errors are input errors (exit 2). *)
  let plan =
    match fault_plan with
    | None -> None
    | Some arg -> (
        let parsed =
          if Sys.file_exists arg then Mp5_fault.Fault.load ~path:arg
          else Mp5_fault.Fault.parse arg
        in
        match parsed with
        | Ok p -> Some p
        | Error e ->
            Format.eprintf "mp5sim: bad fault plan: %s@." e;
            exit 2)
  in
  if Option.is_some plan && runs > 1 then
    usage "--fault-plan applies to single runs only (drop --runs)";
  if Option.is_some plan && recirc then
    usage "--fault-plan is not supported by the --recirc baseline";
  (* Streaming mode: drive the run from a pull-based packet source
     instead of a materialized array — constant memory at any packet
     count, with optional periodic checkpoints and snapshot resume. *)
  let streaming = stream || supervise || checkpoint_every <> None || resume_file <> None in
  require streaming "a streaming run (--stream, --checkpoint-every, --resume or --supervise)"
    streaming_only;
  let keep_snapshots = Option.value keep_snapshots ~default:2 in
  let heartbeat_every = Option.value heartbeat_every ~default:1000 in
  if streaming then begin
    if recirc then usage "streaming runs do not support --recirc";
    if runs > 1 then usage "streaming runs are single runs (drop --runs)";
    if checkpoint_every <> None && snapshot_path = None then
      usage "--checkpoint-every requires --snapshot FILE";
    if resume_file <> None && Option.is_some plan then
      usage "--resume takes its fault plan from the snapshot (drop --fault-plan)";
    if supervise then begin
      if checkpoint_every = None || snapshot_path = None then
        usage "--supervise requires --checkpoint-every and --snapshot";
      if resume_file <> None then
        usage "--supervise resumes from the snapshot rotation chain (drop --resume)"
    end
  end;
  (* The synthetic workload of a program without a named app trace,
     generated whole ([trace_for_seed]) or streamed ([source] below). *)
  let sensitivity_spec seed : Mp5_workload.Tracegen.sensitivity_spec =
    {
      n_packets;
      k;
      pkt_bytes;
      n_fields = config.Mp5_banzai.Config.n_user_fields;
      index_fields = List.init config.Mp5_banzai.Config.n_user_fields Fun.id;
      reg_size = 512;
      pattern = (if skewed then Mp5_workload.Tracegen.Skewed else Uniform);
      n_ports = 64;
      seed;
    }
  in
  let trace_for_seed seed =
    match app with
    | Some name when List.mem_assoc name Mp5_apps.Sources.all_named ->
        let pkts = Mp5_workload.Tracegen.flows ~seed ~n_packets ~k ~concurrency:64 () in
        Mp5_apps.Traces.trace_for name pkts
    | _ -> Mp5_workload.Tracegen.sensitivity (sensitivity_spec seed)
  in
  (* Multi-seed mode: [--runs R] repeats the whole experiment on R
     independently seeded traces (seed, seed+1, ...), spread over [--jobs]
     domains.  Compiled switches are immutable at runtime, and each
     Sim.run builds its own state, so runs are independent; the pool's
     order-preserving map keeps the report identical at any job count. *)
  if runs > 1 && trace_file = None && not recirc then begin
    let pool = if jobs > 1 then Some (Mp5_util.Pool.create ~jobs) else None in
    let one i =
      let trace = trace_for_seed (seed + i) in
      let params = { (Mp5_core.Sim.default_params ~k) with mode } in
      let r, rep = Mp5_core.Switch.verify ~params ~k sw trace in
      (seed + i, r.Mp5_core.Sim.normalized_throughput, r.Mp5_core.Sim.dropped,
       Mp5_core.Equiv.equivalent rep)
    in
    let results =
      match pool with
      | Some p -> Mp5_util.Pool.init p runs one
      | None -> Array.init runs one
    in
    Option.iter Mp5_util.Pool.shutdown pool;
    Array.iter
      (fun (s, thr, dropped, equiv) ->
        Format.printf "seed %d: throughput %.3f, dropped %d%s@." s thr dropped
          (if equiv then "" else " NOT-EQUIVALENT"))
      results;
    let mean =
      Array.fold_left (fun acc (_, t, _, _) -> acc +. t) 0.0 results
      /. float_of_int runs
    in
    Format.printf "%d pipelines, %d runs x %d packets (%d domains): mean throughput %.3f@." k
      runs n_packets jobs mean;
    let all_equiv = Array.for_all (fun (_, _, _, e) -> e) results in
    exit (if all_equiv || mode <> Mp5_core.Sim.Mp5 then 0 else 3)
  end;
  (* Index fields: every user field that feeds a register index.
     Lazy so streaming runs never materialize the array. *)
  let trace =
    lazy
      (match trace_file with
      | Some path -> (
          match Mp5_workload.Trace_io.load ~path with
          | Ok trace -> Mp5_banzai.Machine.sort_trace trace
          | Error e ->
              Format.eprintf "%s@." e;
              exit 2)
      | None -> trace_for_seed seed)
  in
  if recirc then begin
    let trace = Lazy.force trace in
    let golden = Mp5_core.Switch.golden sw trace in
    let r = Mp5_core.Recirc.run ~k sw.prog trace in
    let rep =
      Mp5_core.Equiv.compare ~golden ~n_packets:(Array.length trace) ~store:r.store
        ~headers_out:r.headers_out ~access_seqs:r.access_seqs ~exit_order:r.exit_order ()
    in
    Format.printf
      "recirculation baseline: throughput %.3f, %.2f recirculations/packet@.%a@."
      r.normalized_throughput r.avg_recirculations Mp5_core.Equiv.pp rep;
    exit 0
  end;
  let params = { (Mp5_core.Sim.default_params ~k) with mode } in
  let metrics =
    if metrics_file <> None || metrics_prom <> None || report || monitor
       || monitor_dump <> None
    then
      let stages =
        Array.length sw.Mp5_core.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages
      in
      Some (Mp5_obs.Metrics.create ~stages ~k)
    else None
  in
  let events =
    match trace_out with
    | None -> None
    | Some _ ->
        let packets = match trace_packets with [] -> None | ids -> Some ids in
        Some (Mp5_obs.Trace.create ~capacity:trace_cap ?packets ())
  in
  let mon =
    if monitor || monitor_dump <> None then
      Some (Mp5_fault.Monitor.create ~epoch:monitor_epoch ?events ())
    else None
  in
  (* --profile-out / --trace-perfetto imply --profile (sampled). *)
  let prof_mode =
    match profile with
    | Some _ as m -> m
    | None ->
        if profile_out <> None || trace_perfetto <> None then Some Mp5_obs.Prof.Sampled
        else None
  in
  let prof = Option.map (fun mode -> Mp5_obs.Prof.create ~mode ()) prof_mode in
  let dump_monitor () =
    match (mon, monitor_dump) with
    | Some m, Some path ->
        with_out path (fun oc ->
            output_string oc (Mp5_fault.Monitor.summary m);
            output_char oc '\n')
    | _ -> ()
  in
  let write_trace () =
    match (events, trace_out) with
    | Some tr, Some path -> with_out path (fun oc -> Mp5_obs.Trace.write_jsonl tr oc)
    | _ -> ()
  in
  (* A monitor violation aborts the run: the diagnostic goes to stderr
     and the verdict and event trace are still written. *)
  let violation diag =
    Format.eprintf "%s@." diag;
    dump_monitor ();
    write_trace ();
    exit 3
  in
  let emit_instruments () =
    (match mon with
    | Some m -> Format.printf "%s@." (Mp5_fault.Monitor.summary m)
    | None -> ());
    dump_monitor ();
    (match metrics with
    | None -> ()
    | Some m ->
        (match Mp5_obs.Metrics.validate m with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "metrics invariant violation: %s@." e;
            exit 3);
        Option.iter
          (fun path ->
            with_out path (fun oc -> output_string oc (Mp5_obs.Metrics.json_string m)))
          metrics_file;
        Option.iter
          (fun path ->
            with_out path (fun oc -> output_string oc (Mp5_obs.Metrics.to_prometheus m)))
          metrics_prom;
        if report then Format.printf "%a" Mp5_obs.Metrics.pp m);
    (match prof with
    | None -> ()
    | Some pf ->
        (match Mp5_obs.Prof.validate pf with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "profile invariant violation: %s@." e;
            exit 3);
        (* Re-validate the serialized snapshot before writing it: CI
           treats the emitted file as already checked. *)
        let js = Mp5_obs.Prof.json_string pf in
        (match Mp5_obs.Prof.validate_json js with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "profile snapshot failed validation: %s@." e;
            exit 3);
        Option.iter (fun path -> with_out path (fun oc -> output_string oc js)) profile_out;
        Option.iter
          (fun path ->
            with_out path (fun oc -> output_string oc (Mp5_obs.Prof.chrome_string pf)))
          trace_perfetto;
        if report || (profile_out = None && trace_perfetto = None) then
          Format.printf "%a" Mp5_obs.Prof.pp pf);
    write_trace ()
  in
  if streaming then begin
    let source () =
      match trace_file with
      | Some "-" -> Mp5_workload.Trace_io.stream_channel ~path:"<stdin>" stdin
      | Some path -> (
          match Mp5_workload.Trace_io.stream ~path with
          | Ok s -> s
          | Error e ->
              Format.eprintf "%s@." e;
              exit 2)
      | None -> (
          match app with
          | Some name when List.mem_assoc name Mp5_apps.Sources.all_named ->
              Mp5_workload.Tracegen.flow_source ~seed ~n_packets ~k ~concurrency:64
                ~fill:(Mp5_apps.Traces.fill name) ()
          | _ -> Mp5_workload.Tracegen.sensitivity_source (sensitivity_spec seed))
    in
    (* Durable checkpoints: tmp file + fsync + atomic rename + directory
       fsync, rotating the previous [keep_snapshots] snapshots down the
       [path], [path.1], ... chain so recovery can fall back past a torn
       newest snapshot. *)
    let write_snapshot path snap =
      Mp5_util.Binio.write_rotated ~fsync:true ~path ~keep:keep_snapshots snap
    in
    let heartbeat_path =
      match (heartbeat_file, snapshot_path) with
      | Some p, _ -> Some p
      | None, Some sp when supervise -> Some (sp ^ ".hb")
      | None, _ -> None
    in
    (* One supervision leg (attempt 0 is the only leg when unsupervised).
       SIGINT/SIGTERM flip the graceful-stop flag: the run pauses at the
       next cycle boundary, flushes a final snapshot, and exits 4 so a
       later --resume (or supervised restart) continues bit-identically. *)
    let leg ~attempt ~resume_snap =
      let stop = ref false in
      let handler = Sys.Signal_handle (fun _ -> stop := true) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      let hb =
        Option.map (fun p -> Mp5_robust.Supervisor.Heartbeat.create ~path:p) heartbeat_path
      in
      (* Crash-testing hook: supervision attempt [i] self-SIGKILLs at the
         i-th cycle of --chaos-kill-at, proving recovery end to end. *)
      let kill_at = List.nth_opt chaos_kill_at attempt in
      let on_heartbeat =
        match (hb, kill_at) with
        | None, None -> None
        | _ ->
            Some
              (fun ~cycle ->
                (match kill_at with
                | Some c when cycle >= c -> Unix.kill (Unix.getpid ()) Sys.sigkill
                | _ -> ());
                match hb with
                | Some h -> Mp5_robust.Supervisor.Heartbeat.beat h ~cycle
                | None -> ())
      in
      let on_checkpoint =
        Option.map (fun path ~cycle:_ snap -> write_snapshot path snap) snapshot_path
      in
      let outcome =
        try
          match resume_snap with
          | Some snap -> (
              match
                Mp5_core.Sim.resume ?metrics ?events ?monitor:mon ?prof
                  ?checkpoint_every ?on_checkpoint ~heartbeat_every ?on_heartbeat ~stop
                  ?cycle_budget:stop_at ~snapshot:snap sw.prog (source ())
              with
              | Ok o -> o
              | Error (Mp5_core.Sim.Corrupt msg) ->
                  Format.eprintf "mp5sim: corrupt snapshot: %s@." msg;
                  exit 2
              | Error (Mp5_core.Sim.Mismatch msg) ->
                  Format.eprintf "mp5sim: snapshot mismatch: %s@." msg;
                  exit 3)
          | None ->
              Mp5_core.Sim.run_source ?metrics ?events ?fault:plan ?monitor:mon ?prof
                ?checkpoint_every ?on_checkpoint ~heartbeat_every ?on_heartbeat ~stop
                ?cycle_budget:stop_at params sw.prog (source ())
        with
        | Invalid_argument msg -> usage "%s" msg
        | Mp5_fault.Monitor.Violation diag -> violation diag
        | Mp5_workload.Packet_source.Error msg ->
            Format.eprintf "%s@." msg;
            exit 2
      in
      match outcome with
      | Mp5_core.Sim.Suspended snap ->
          (match snapshot_path with
          | Some path ->
              write_snapshot path snap;
              Format.eprintf "mp5sim: interrupted; snapshot flushed to %s (resume with --resume %s)@."
                path path
          | None -> Format.eprintf "mp5sim: interrupted (no --snapshot: state discarded)@.");
          exit 4
      | Mp5_core.Sim.Completed s ->
          Format.printf
            "%d pipelines, %d packets (streamed): throughput %.3f, max queue %d, dropped %d@." k
            s.Mp5_core.Sim.s_packets s.Mp5_core.Sim.s_normalized_throughput
            s.Mp5_core.Sim.s_max_queue s.Mp5_core.Sim.s_dropped;
          Format.printf "digests: exits %016x, access %016x@."
            s.Mp5_core.Sim.s_digests.Mp5_core.Sim.dg_exits
            s.Mp5_core.Sim.s_digests.Mp5_core.Sim.dg_access;
          emit_instruments ();
          exit
            (if match mon with Some m -> not (Mp5_fault.Monitor.ok m) | None -> false then 3
             else 0)
    in
    if supervise then begin
      (* The parent only watches: a Ctrl-C reaches the child too (same
         process group), which flushes its final snapshot and exits 4 —
         not retryable, so the verdict propagates the code. *)
      let ignore_sig = Sys.Signal_handle (fun _ -> ()) in
      Sys.set_signal Sys.sigint ignore_sig;
      Sys.set_signal Sys.sigterm ignore_sig;
      let d = Mp5_robust.Supervisor.default ~snapshot_path:(Option.get snapshot_path) in
      let cfg =
        {
          d with
          Mp5_robust.Supervisor.heartbeat_path = Option.get heartbeat_path;
          keep_snapshots;
          hang_timeout = Option.value hang_timeout ~default:d.hang_timeout;
          max_restarts = Option.value max_restarts ~default:d.max_restarts;
          backoff_base = Option.value backoff ~default:d.backoff_base;
          log = (fun line -> Format.eprintf "%s@." line);
        }
      in
      match
        Mp5_robust.Supervisor.supervise cfg ~child:(fun ~attempt ~resume ->
            leg ~attempt ~resume_snap:(Option.map snd resume))
      with
      | Mp5_robust.Supervisor.Completed _ -> exit 0
      | Mp5_robust.Supervisor.Failed { last = Mp5_robust.Supervisor.Exited c; _ } -> exit c
      | Mp5_robust.Supervisor.Failed _ | Mp5_robust.Supervisor.Gave_up _ -> exit 5
    end;
    let resume_snap =
      match resume_file with
      | None -> None
      | Some path -> (
          (* Walk the rotation chain newest-first: a torn newest snapshot
             falls back to the previous slot instead of failing the
             resume. *)
          match
            Mp5_util.Binio.load_latest_valid ~magic:Mp5_core.Sim.snapshot_magic ~path
              ~keep:keep_snapshots
          with
          | Ok (slot, contents) ->
              if slot <> path then
                Format.eprintf "mp5sim: falling back to snapshot %s@." slot;
              Some contents
          | Error msg ->
              Format.eprintf "mp5sim: cannot read snapshot: %s@." msg;
              exit 2)
    in
    leg ~attempt:0 ~resume_snap
  end;
  let trace = Lazy.force trace in
  let r, rep =
    try
      Mp5_core.Switch.verify ~params ?metrics ?events ?fault:plan
        ?monitor:mon ?prof ~k sw trace
    with
    | Invalid_argument msg -> usage "%s" msg
    | Mp5_fault.Monitor.Violation diag -> violation diag
  in
  Format.printf
    "%d pipelines, %d packets: throughput %.3f, max queue %d, dropped %d@.%a@." k
    (Array.length trace) r.normalized_throughput r.max_queue r.dropped Mp5_core.Equiv.pp rep;
  emit_instruments ();
  (* A fault plan makes the run intentionally lossy, so functional
     equivalence against the unfaulted golden switch is not enforced;
     a monitor violation would already have exited 3 above. *)
  if match mon with Some m -> not (Mp5_fault.Monitor.ok m) | None -> false then exit 3;
  exit
    (if Mp5_core.Equiv.equivalent rep || mode <> Mp5_core.Sim.Mp5 || Option.is_some plan
     then 0
     else 3)

let app_arg =
  Arg.(value & opt (some string) None & info [ "app" ] ~docv:"NAME" ~doc:"Built-in program name.")

let file_arg =
  Arg.(value & opt (some non_dir_file) None & info [ "file" ] ~docv:"FILE" ~doc:"Domino source file.")

let k_arg =
  Arg.(value & opt int 4 & info [ "k"; "pipelines" ] ~docv:"K" ~doc:"Number of pipelines, 1 to 64.")

let mode_arg =
  Arg.(value & opt mode_conv Mp5_core.Sim.Mp5
       & info [ "mode" ] ~docv:"MODE" ~doc:"mp5, static, no-d4, naive or ideal.")

let n_arg = Arg.(value & opt int 20000 & info [ "n"; "packets" ] ~docv:"N" ~doc:"Packets to simulate.")

let bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pkt-bytes" ] ~docv:"B" ~doc:"Packet size for synthetic traces (default 64).")

let skew_arg = Arg.(value & flag & info [ "skewed" ] ~doc:"Skewed state access pattern.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
let recirc_arg = Arg.(value & flag & info [ "recirc" ] ~doc:"Run the re-circulation baseline.")
let list_arg = Arg.(value & flag & info [ "list-apps" ] ~doc:"List built-in programs.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ] ~docv:"FILE"
        ~doc:"Replay a packet trace (lines of: time port field...).  With \
              --stream, '-' reads the trace from stdin in constant memory \
              (times must be nondecreasing).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Domains that spread the seeds of a multi-seed run (see \
              --runs); results are independent of N.")

let runs_arg =
  Arg.(
    value & opt int 1
    & info [ "runs" ] ~docv:"R"
        ~doc:"Repeat on R generated traces seeded seed, seed+1, ... and \
              report per-run and mean throughput (generated traces only).")

let loop_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Mp5_core.Sim.Auto);
             ("generic", Mp5_core.Sim.Generic);
             ("fast", Mp5_core.Sim.Fast);
           ])
        Mp5_core.Sim.Auto
    & info [ "loop" ] ~docv:"LOOP"
        ~doc:"Accepted for compatibility; no effect.  There is one \
              cycle loop, so 'auto', 'generic' and 'fast' run the same \
              code.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write per-run telemetry (utilization, stall attribution, \
              latency/occupancy histograms) as mp5-metrics/1 JSON. \
              Single-run mode only.")

let metrics_prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-prom" ] ~docv:"FILE"
        ~doc:"Write the same telemetry in Prometheus text exposition format.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured packet-event trace (mp5-trace/1 JSONL: \
              arrivals, stage entries, crossbar transfers, phantom \
              blocks/deliveries, deliveries, drops, remaps).")

let trace_packets_arg =
  Arg.(
    value & opt (list int) []
    & info [ "trace-packets" ] ~docv:"IDS"
        ~doc:"Restrict --trace to these packet ids (comma-separated); \
              system events such as remaps are always recorded.")

let trace_cap_arg =
  Arg.(
    value & opt int 65536
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:"Event-trace ring capacity; older events are overwritten \
              beyond this (the JSONL header reports truncation).")

let prof_mode_conv =
  let parse = function
    | "sampled" -> Ok Mp5_obs.Prof.Sampled
    | "full" -> Ok Mp5_obs.Prof.Full
    | s -> Error (`Msg (Printf.sprintf "unknown profile mode %S (expected sampled or full)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Mp5_obs.Prof.Sampled -> "sampled" | Mp5_obs.Prof.Full -> "full")
  in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some Mp5_obs.Prof.Sampled) (some prof_mode_conv) None
    & info [ "profile" ] ~docv:"MODE"
        ~doc:"Attach the wall-clock span profiler: one span per cycle \
              phase.  The mode, 'sampled' (the default) or 'full', is \
              a label recorded in the profile; both record the same \
              spans.  Results are bit-identical with profiling on or \
              off.  Prints a one-screen phase report unless an output \
              file is given.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:"Write the profile as a validated mp5-prof/1 JSON snapshot \
              (per-phase/per-domain totals, duration histograms, GC \
              counters); implies --profile.")

let trace_perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-perfetto" ] ~docv:"FILE"
        ~doc:"Write the profile as Chrome trace-event JSON loadable in \
              Perfetto (one track per domain: spans plus instants for \
              remaps, checkpoints and fault edges); implies --profile.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:"Inject faults from PLAN: a plan file, or an inline \
              ;-separated event list (e.g. 'seed 7; down @800 pipe=1; \
              up @2400 pipe=1').  See lib/fault for the format.  \
              Single-run mode only; functional equivalence is not \
              enforced under injected faults.")

let monitor_arg =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:"Attach the runtime invariant monitor (packet conservation, \
              flow affinity, FIFO bounds, phantom accounting); a \
              violation aborts the run with a diagnostic and exit code 3.")

let monitor_epoch_arg =
  Arg.(
    value & opt int 64
    & info [ "monitor-epoch" ] ~docv:"CYCLES"
        ~doc:"Cycles between monitor check passes.")

let monitor_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "monitor-dump" ] ~docv:"FILE"
        ~doc:"Write the monitor verdict (and the last diagnostic, if \
              any) to FILE; implies --monitor.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:"Print a one-screen run report (utilization, stall \
              attribution, latency percentiles, drops by cause).")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"Drive the run from a pull-based packet source instead of a \
              materialized trace: memory stays constant at any packet \
              count.  Implied by --checkpoint-every and --resume.  \
              Functional equivalence against the golden switch is not \
              checked (the trace is never held in memory); the run \
              reports exit/access digests instead.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"CYCLES"
        ~doc:"Write a full machine snapshot to --snapshot every CYCLES \
              simulated cycles (atomic replace; the file always holds \
              the last completed checkpoint).")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:"Snapshot file written by --checkpoint-every (format \
              mp5-snap/1: versioned, length- and checksum-framed).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:"Restore machine state from FILE and continue the run; the \
              result is bit-identical to the uninterrupted run.  The \
              packet source is rebuilt from the same flags (or trace \
              file) and its consumed prefix is replayed and checked \
              against the snapshot's input digest.  Corrupt snapshots \
              exit 2; snapshots for a different program, trace or \
              instrumentation exit 3.")

let keep_snapshots_arg =
  Arg.(
    value & opt (some int) None
    & info [ "keep-snapshots" ] ~docv:"N"
        ~doc:"Rotation depth for --snapshot: keep the last N snapshots as \
              FILE, FILE.1, ...  --resume falls back down the chain when \
              a newer snapshot fails validation (default 2).")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:"Run the streaming leg as a supervised child process: a \
              heartbeat-file watchdog SIGKILLs a hung leg (see \
              --hang-timeout), and a leg that dies by signal or hang is \
              restarted from the newest valid snapshot with exponential \
              backoff, up to --max-restarts times.  Requires \
              --checkpoint-every and --snapshot; exits 5 when the \
              restart budget is exhausted (the latest snapshot is kept \
              for post-mortem --resume).")

let heartbeat_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "heartbeat" ] ~docv:"FILE"
        ~doc:"Liveness beat file, rewritten in place every \
              --heartbeat-every cycles (for the --supervise watchdog or \
              an external one).  Defaults to SNAPSHOT.hb under \
              --supervise.")

let heartbeat_every_arg =
  Arg.(
    value & opt (some int) None
    & info [ "heartbeat-every" ] ~docv:"CYCLES"
        ~doc:"Cycles between heartbeats (default 1000).")

let max_restarts_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:"Restart budget for --supervise (default 5).")

let hang_timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "hang-timeout" ] ~docv:"SECS"
        ~doc:"Seconds without a heartbeat before the --supervise watchdog \
              SIGKILLs the leg (default 5).")

let backoff_arg =
  Arg.(
    value & opt (some float) None
    & info [ "backoff" ] ~docv:"SECS"
        ~doc:"Base restart delay for --supervise; doubles per restart, \
              capped at 2s (default 0.1).")

let stop_at_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "stop-at" ] ~docv:"CYCLES"
        ~doc:"Testing hook: suspend the leg after CYCLES visited cycles \
              exactly as a SIGINT would — flush a final snapshot (with \
              --snapshot) and exit 4.")

let chaos_kill_arg =
  Arg.(
    value & opt (list int) []
    & info [ "chaos-kill-at" ] ~docv:"C0,C1,..."
        ~doc:"Testing hook: supervision attempt i SIGKILLs itself at \
              cycle Ci (attempts beyond the list run clean), proving \
              crash recovery end to end.")

let fabric_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fabric" ] ~docv:"SPEC"
        ~doc:"Simulate a multi-switch fabric: every switch runs the \
              program as its own simulator instance, joined by \
              delay-carrying links with deterministic cycle-boundary \
              handoff.  SPEC \
              is a topology: 'line:4,hosts=2,delay=1', \
              'tree:depth=2,fanout=2,hosts=1', 'fattree:4', \
              'leafspine:2x2,hosts=2,delay=1', or an explicit edge list \
              'edges:h0-s0;s0-s1:2;s1-h1'.  Traffic is seeded \
              host-to-host (--seed, --n, --fab-rate); routing is \
              shortest-path, derived from the topology.  Fabric-wide \
              packet conservation is checked every --monitor-epoch \
              cycles; a violation exits 3.")

let fab_print_arg =
  Arg.(
    value & flag
    & info [ "fab-print" ]
        ~doc:"Print the parsed topology and derived routing policy for \
              --fabric and exit.")

let fab_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fab-plan" ] ~docv:"PLAN"
        ~doc:"Link fault schedule for --fabric: a plan file or an inline \
              ;-separated event list (e.g. 'link-down @50..200 link=4; \
              link-delay @0..100 link=2 extra=3').  Sends attempted on \
              a downed link are counted drops; conservation still holds.")

let fab_rate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fab-rate" ] ~docv:"N"
        ~doc:"Fabric-wide injection rate in packets per cycle (default: \
              half the host count).")

let fab_sabotage_arg =
  Arg.(
    value & flag
    & info [ "fab-sabotage" ]
        ~doc:"Testing hook: skew the fabric's packet accounting before \
              the final conservation check, demonstrating the violation \
              path (exit 3).")

let cmd =
  let doc = "simulate packet-processing programs on MP5" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on usage errors (missing program, bad flag combinations).";
      Cmd.Exit.info 2
        ~doc:
          "on input errors (unknown app, a program that does not compile, malformed \
           trace file or fault plan).";
      Cmd.Exit.info 3
        ~doc:
          "on validation failures (functional non-equivalence, metrics or \
           runtime-monitor invariant violations).";
      Cmd.Exit.info 4
        ~doc:
          "when a streaming run is interrupted (SIGINT/SIGTERM or --stop-at) \
           after flushing a final snapshot; resume with --resume.";
      Cmd.Exit.info 5
        ~doc:
          "when --supervise exhausts its restart budget; the latest valid \
           snapshot is kept for post-mortem resumption.";
    ]
  in
  Cmd.v
    (Cmd.info "mp5sim" ~doc ~exits)
    Term.(
      const run $ app_arg $ file_arg $ k_arg $ mode_arg $ n_arg $ bytes_arg $ skew_arg
      $ seed_arg $ recirc_arg $ list_arg $ trace_arg $ jobs_arg $ runs_arg $ loop_arg
      $ metrics_arg $ metrics_prom_arg $ trace_out_arg $ trace_packets_arg $ trace_cap_arg
      $ report_arg $ profile_arg $ profile_out_arg $ trace_perfetto_arg
      $ fault_plan_arg $ monitor_arg $ monitor_epoch_arg $ monitor_dump_arg
      $ stream_arg $ checkpoint_every_arg $ snapshot_arg $ resume_arg
      $ keep_snapshots_arg $ supervise_arg $ heartbeat_arg $ heartbeat_every_arg
      $ max_restarts_arg $ hang_timeout_arg $ backoff_arg $ stop_at_arg $ chaos_kill_arg
      $ fabric_arg $ fab_print_arg $ fab_plan_arg $ fab_rate_arg $ fab_sabotage_arg)

let () = exit (Cmd.eval cmd)
