(* Benchmark driver: regenerates every table and figure of the paper.

     dune exec bench/main.exe            # everything, reduced scale
     dune exec bench/main.exe -- --full  # paper-scale packet counts
     dune exec bench/main.exe -- --smoke # tiny scale, for CI smoke runs
     dune exec bench/main.exe -- --jobs 4 fig7a   # domain-parallel runner
     dune exec bench/main.exe -- fig7a d2 table1  # selected experiments

   Besides the human-readable report, every run writes BENCH_results.json
   (override the path with --json PATH): wall-clock seconds per experiment
   plus the numeric series, for regression tracking across commits. *)

module Stats = Mp5_util.Stats

let bar width v =
  let n = int_of_float (v *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let print_series title xlabel series =
  Format.printf "@.%s@." title;
  Format.printf "  %10s  %8s  %8s   normalized throughput@." xlabel "MP5" "ideal";
  List.iter
    (fun (p : Experiments.series_point) ->
      Format.printf "  %10d  %8.3f  %8.3f   |%-40s|@." p.x p.mp5 p.ideal (bar 40 p.mp5))
    series

let range xs =
  let lo, hi = Stats.min_max xs in
  Printf.sprintf "%.2fx-%.2fx" lo hi

let pct_range xs =
  let lo, hi = Stats.min_max xs in
  Printf.sprintf "%.1f%%-%.1f%%" (100. *. lo) (100. *. hi)

(* Each runner returns its numeric series as (key, value) pairs for the
   JSON report; printing stays exactly as before. *)

let indexed prefix xs =
  Array.to_list (Array.mapi (fun i v -> (Printf.sprintf "%s/%d" prefix i, v)) xs)

let series_metrics series =
  List.concat_map
    (fun (p : Experiments.series_point) ->
      [ (Printf.sprintf "mp5/%d" p.x, p.mp5); (Printf.sprintf "ideal/%d" p.x, p.ideal) ])
    series

let run_table1 () =
  Mp5_asic.Table1.print Format.std_formatter;
  Format.printf
    "@.paper: quadratic growth in pipelines, linear in stages; 3.36mm2 at k=4, s=16;@.";
  Format.printf "0.5-1%% of a 300-700mm2 switch ASIC at k=4 (2-4%% at k=8).@.";
  let a = Mp5_asic.Model.area (Mp5_asic.Model.paper_config ~k:4 ~stages:16) in
  let lo, hi = Mp5_asic.Model.switch_fraction a in
  Format.printf "measured: k=4, s=16 -> %.2fmm2 = %.1f%%-%.1f%% of a switch ASIC@."
    a.Mp5_asic.Model.total_mm2 (100. *. lo) (100. *. hi);
  [ ("area_mm2", a.Mp5_asic.Model.total_mm2) ]

let run_sram () =
  let s = Mp5_asic.Model.sram ~stateful_stages:10 ~entries_per_stage:1000 in
  Format.printf "@.SRAM overhead (Section 4.2):@.";
  Format.printf "  %d bits per register index (6 pipeline id + 16 access + 8 in-flight)@."
    s.Mp5_asic.Model.bits_per_index;
  Format.printf "  10 stateful stages x 1000 entries -> %.1f KB per pipeline@."
    s.Mp5_asic.Model.total_kb;
  Format.printf "  paper: ~35 KB per pipeline, nominal next to 50-100 MB of switch SRAM@.";
  [ ("kb_per_pipeline", s.Mp5_asic.Model.total_kb) ]

let run_d2 scale =
  let skewed, uniform = Experiments.d2 scale in
  Format.printf "@.D2 microbenchmark: dynamic vs static sharding (throughput ratio, %d runs)@."
    (Array.length skewed);
  Format.printf "  skewed access pattern:  %s   (paper: 1.1x-3.3x)@." (range skewed);
  Format.printf "  uniform access pattern: %s   (paper: 1.0x-1.5x)@." (range uniform);
  indexed "skewed" skewed @ indexed "uniform" uniform

let run_d4 scale =
  let mp5, nod4, recirc = Experiments.d4 scale in
  Format.printf "@.D4 microbenchmark: packets violating C1 (%d runs)@." (Array.length mp5);
  Format.printf "  MP5 (with D4):        %s   (paper: 0%%)@." (pct_range mp5);
  Format.printf "  without D4:           %s   (paper: 14%%-26%%)@." (pct_range nod4);
  Format.printf "  re-circulation:       %s   (paper: 18%%-31%%)@." (pct_range recirc);
  indexed "mp5" mp5 @ indexed "no_d4" nod4 @ indexed "recirc" recirc

let run_d3 scale =
  let rows = Experiments.d3 scale in
  Format.printf "@.D3 microbenchmark: re-circulation vs MP5 throughput (%d runs)@."
    (Array.length rows);
  let reductions =
    Array.map (fun (mp5, rc, _, _) -> 100.0 *. (1.0 -. (rc /. mp5))) rows
  in
  let lo, hi = Stats.min_max reductions in
  Format.printf "  throughput reduction: %.0f%%-%.0f%%   (paper: 31%%-77%%)@." lo hi;
  Array.iteri
    (fun i (mp5, rc, avg_recirc, naive) ->
      Format.printf
        "  run %2d: mp5 %.3f  recirc %.3f (%.2f recirc/pkt)  naive-single %.3f%s@." i mp5 rc
        avg_recirc naive
        (if rc < naive then "   <- worse than naive (recirc/pkt ~ k)" else ""))
    rows;
  indexed "mp5" (Array.map (fun (m, _, _, _) -> m) rows)
  @ indexed "recirc" (Array.map (fun (_, r, _, _) -> r) rows)
  @ indexed "naive" (Array.map (fun (_, _, _, n) -> n) rows)

let run_fig8 scale =
  Format.printf "@.Figure 8: real applications (bimodal 200/1400B packets, web-search flows)@.";
  let apps = Experiments.fig8 scale in
  List.iter
    (fun (name, points) ->
      Format.printf "  %-10s" name;
      List.iter
        (fun (p : Experiments.app_point) ->
          Format.printf "  k=%d: %.3f (maxq %d, p99 lat %.0f%s)" p.ap_k p.ap_thr p.ap_maxq
            p.ap_p99_latency
            (if p.ap_equiv then "" else " NOT-EQUIV"))
        points;
      Format.printf "@.")
    apps;
  Format.printf "  paper: line rate for every app at every pipeline count;@.";
  Format.printf "  max queued packets: flowlet 11, CONGA 8, WFQ 7, sequencer 7.@.";
  List.concat_map
    (fun (name, points) ->
      List.map
        (fun (p : Experiments.app_point) ->
          (Printf.sprintf "%s/k=%d" name p.ap_k, p.ap_thr))
        points)
    apps

let run_ablate_priority scale =
  let rows = Experiments.ablate_priority scale in
  Format.printf "@.Ablation: Invariant 2 (stateless packets bypass queues; guarded program)@.";
  Array.iteri
    (fun i ((thr_on, lat_on), (thr_off, lat_off)) ->
      Format.printf
        "  run %2d: priority on thr %.3f p50-latency %4.0f   |   off thr %.3f p50-latency %4.0f@."
        i thr_on lat_on thr_off lat_off)
    rows;
  indexed "on_thr" (Array.map (fun ((t, _), _) -> t) rows)
  @ indexed "off_thr" (Array.map (fun (_, (t, _)) -> t) rows)

let run_ablate_gate scale =
  let rows = Experiments.ablate_gate scale in
  Format.printf "@.Ablation: Figure 6 heuristic verbatim vs noise-gated (uniform, 64 entries)@.";
  Array.iteri
    (fun i (gated, verbatim) ->
      Format.printf "  run %2d: gated %.3f   verbatim %.3f@." i gated verbatim)
    rows;
  Format.printf "  the verbatim heuristic chases sampling noise on balanced workloads@.";
  indexed "gated" (Array.map fst rows) @ indexed "verbatim" (Array.map snd rows)

let run_ablate_period scale =
  Format.printf "@.Ablation: remap period (skewed pattern, random initial placement)@.";
  let rows = Experiments.ablate_period scale in
  List.iter
    (fun (period, thr) ->
      Format.printf "  every %5d cycles: %.3f%s@." period thr
        (if period = 0 then " (never)" else if period = 100 then " (paper default)" else ""))
    rows;
  List.map (fun (period, thr) -> (Printf.sprintf "period=%d" period, thr)) rows

let run_ablate_fifo scale =
  Format.printf "@.Ablation: finite FIFO capacity (tail drops, no adaptation)@.";
  let rows = Experiments.ablate_fifo scale in
  List.iter
    (fun (cap, dropped, thr) ->
      Format.printf "  capacity %3d: dropped %6d  throughput %.3f%s@." cap dropped thr
        (if cap = 8 then " (paper's size)" else ""))
    rows;
  List.concat_map
    (fun (cap, dropped, thr) ->
      [ (Printf.sprintf "cap=%d/throughput" cap, thr);
        (Printf.sprintf "cap=%d/dropped" cap, float_of_int dropped) ])
    rows

let run_degraded scale =
  let rows = Experiments.degraded scale in
  Format.printf
    "@.Degraded mode: pipeline 1 of 4 down at cycle 200, never recovers (%d runs)@."
    (Array.length rows);
  Array.iteri
    (fun i (healthy, mp5, static) ->
      Format.printf
        "  run %2d: healthy %.3f   MP5 degraded %.3f (%.0f%% of the 3/4 bound)   static %.3f@."
        i healthy mp5
        (100.0 *. mp5 /. (0.75 *. healthy))
        static)
    rows;
  Format.printf
    "  dynamic sharding evacuates the dead pipeline's cells at the next remap;@.";
  Format.printf "  a static placement keeps steering packets at it for the whole run@.";
  indexed "healthy" (Array.map (fun (h, _, _) -> h) rows)
  @ indexed "mp5" (Array.map (fun (_, m, _) -> m) rows)
  @ indexed "static" (Array.map (fun (_, _, s) -> s) rows)

let run_sim_micro scale =
  let m = Experiments.sim_micro scale in
  Format.printf "@.sim-micro: heavy-hitter, 2000-packet trace, k=4 (min over %d reps)@."
    m.Experiments.mi_reps;
  Format.printf "  closure kernels: %12.0f ns/run@." m.Experiments.mi_kernel_ns;
  Format.printf "  host calibration: %11.0f ns/loop (kernels / calibration = %.3f)@."
    m.Experiments.mi_calib_ns
    (m.Experiments.mi_kernel_ns /. m.Experiments.mi_calib_ns);
  Format.printf "  closure kernels allocate %.1f words/packet@." m.Experiments.mi_kernel_words;
  Format.printf "  golden machine (sequencer, 2000 packets) allocates %.1f words/packet@."
    m.Experiments.mi_golden_words;
  Format.printf "  trace reader (same trace as text) allocates %.2f words/byte@."
    m.Experiments.mi_trace_words;
  Format.printf "  Switch.verify (flowlet, 2000 flow packets) allocates %.1f words/packet@."
    m.Experiments.mi_verify_words;
  Format.printf "  fabric checkpoint boundary (2x2 leaf-spine, mid-drain) allocates %.0f words@."
    m.Experiments.mi_boundary_words;
  Format.printf "  fabric drained in-process in 500-cycle legs allocates %.1f words/packet@."
    m.Experiments.mi_legs_words;
  Format.printf "  fabric drained straight allocates %.1f words/packet@."
    m.Experiments.mi_drain_words;
  Format.printf "  switch drained in-process in 100-cycle legs allocates %.1f words/packet@."
    m.Experiments.mi_switch_legs_words;
  [
    ("heavy-hitter-2k/kernel_ns", m.Experiments.mi_kernel_ns);
    (* The host-speed reference the gate divides [kernel_ns] by. *)
    ("host/calib_ns", m.Experiments.mi_calib_ns);
    ("heavy-hitter-2k/words_per_pkt", m.Experiments.mi_kernel_words);
    (* One cycle loop: the oracle-loop key gated since the allocation
       fix now counts the same run. *)
    ("generic/words_per_pkt", m.Experiments.mi_kernel_words);
    ("golden/words_per_pkt", m.Experiments.mi_golden_words);
    ("trace_io/words_per_byte", m.Experiments.mi_trace_words);
    ("verify/words_per_pkt", m.Experiments.mi_verify_words);
    ("fabric-boundary/words", m.Experiments.mi_boundary_words);
    ("fabric-legs/words_per_pkt", m.Experiments.mi_legs_words);
    ("fabric-drain/words_per_pkt", m.Experiments.mi_drain_words);
    ("switch-legs/words_per_pkt", m.Experiments.mi_switch_legs_words);
  ]

let run_longrun scale =
  let r = Experiments.longrun scale in
  Format.printf "@.longrun: streamed source + chunked checkpoint/resume@.";
  Format.printf "  %d packets in %d chunks: throughput %.3f, %.1f ns/packet, %.2fs@."
    r.Experiments.lo_packets r.Experiments.lo_chunks r.Experiments.lo_throughput
    (r.Experiments.lo_seconds *. 1e9 /. float_of_int r.Experiments.lo_packets)
    r.Experiments.lo_seconds;
  Format.printf "  top heap %.1f MB (bounded by machine state, not run length)@."
    r.Experiments.lo_top_heap_mb;
  Format.printf "  digests: exits %016x, access %016x@." r.Experiments.lo_exit_digest
    r.Experiments.lo_access_digest;
  (match r.Experiments.lo_parity with
  | Some true -> Format.printf "  chunked run = uninterrupted run (all counters and digests)@."
  | Some false -> assert false (* longrun raises on divergence *)
  | None -> Format.printf "  (parity vs uninterrupted run checked below --full scale)@.");
  [
    ("packets", float_of_int r.Experiments.lo_packets);
    ("chunks", float_of_int r.Experiments.lo_chunks);
    ("throughput", r.Experiments.lo_throughput);
    ("ns_per_packet", r.Experiments.lo_seconds *. 1e9 /. float_of_int r.Experiments.lo_packets);
    ("top_heap_mb", r.Experiments.lo_top_heap_mb);
  ]

let run_fig7 scale which =
  let title, xlabel, series =
    match which with
    | `A ->
        ("Figure 7a: throughput vs number of pipelines", "pipelines", Experiments.fig7a scale)
    | `B -> ("Figure 7b: throughput vs stateful stages", "stateful", Experiments.fig7b scale)
    | `C -> ("Figure 7c: throughput vs register size", "entries", Experiments.fig7c scale)
    | `D -> ("Figure 7d: throughput vs packet size", "bytes", Experiments.fig7d scale)
  in
  print_series title xlabel series;
  series_metrics series

(* --- machine-readable report --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Plain [%g]-style floats are valid JSON except for the special values. *)
let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let write_json path ~scale ~jobs results =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"generated\": \"%s\",\n"
    (let t = Unix.gmtime (Unix.time ()) in
     Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
       (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec);
  out "  \"scale\": { \"n_packets\": %d, \"runs\": %d },\n" scale.Experiments.n_packets
    scale.Experiments.runs;
  out "  \"jobs\": %d,\n" jobs;
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (name, seconds, metrics) ->
      out "    { \"name\": \"%s\", \"seconds\": %s, \"series\": {" (json_escape name)
        (json_float seconds);
      List.iteri
        (fun j (k, v) ->
          out "%s\"%s\": %s" (if j = 0 then " " else ", ") (json_escape k) (json_float v))
        metrics;
      out " } }%s\n" (if i = List.length results - 1 then "" else ",")
    )
    results;
  out "  ]\n}\n";
  close_out oc

let chaos_dir = ref None

let run_chaos scale =
  let r = Experiments.chaos ?dir:!chaos_dir scale in
  Format.printf "@.chaos: supervised crash-recovery soak@.";
  Format.printf
    "  %d campaigns, %d scheduled crashes (%d torn checkpoints, %d wedges), %d restarts@."
    r.Experiments.ch_campaigns r.Experiments.ch_crashes r.Experiments.ch_torn
    r.Experiments.ch_wedges r.Experiments.ch_restarts;
  if r.Experiments.ch_failures > 0 then begin
    Format.printf "  %d campaigns FAILED to recover bit-identically; repro artifacts in %s@."
      r.Experiments.ch_failures r.Experiments.ch_repro_dir;
    failwith "chaos: supervised recovery diverged from the uninterrupted oracle"
  end;
  Format.printf "  every campaign recovered bit-identical to its uninterrupted oracle@.";
  [
    ("campaigns", float_of_int r.Experiments.ch_campaigns);
    ("crashes", float_of_int r.Experiments.ch_crashes);
    ("torn_checkpoints", float_of_int r.Experiments.ch_torn);
    ("wedges", float_of_int r.Experiments.ch_wedges);
    ("restarts", float_of_int r.Experiments.ch_restarts);
    ("failures", float_of_int r.Experiments.ch_failures);
  ]

let run_fabric scale =
  let r = Experiments.fabric scale in
  Format.printf "@.fabric: 2x2 leaf-spine, %d switches / %d hosts@."
    r.Experiments.fb_switches r.Experiments.fb_hosts;
  Format.printf "  %d injected, %d delivered, %d dropped in %d cycles (%.4f pkts/cycle, %.2fs)@."
    r.Experiments.fb_injected r.Experiments.fb_delivered r.Experiments.fb_dropped
    r.Experiments.fb_cycles r.Experiments.fb_throughput r.Experiments.fb_seconds;
  Format.printf "  per-hop latency p50=%d p99=%d, end-to-end p50=%d p99=%d, %.2f hops/pkt@."
    r.Experiments.fb_hop_p50 r.Experiments.fb_hop_p99 r.Experiments.fb_e2e_p50
    r.Experiments.fb_e2e_p99 r.Experiments.fb_hops_mean;
  [
    ("switches", float_of_int r.Experiments.fb_switches);
    ("hosts", float_of_int r.Experiments.fb_hosts);
    ("delivered", float_of_int r.Experiments.fb_delivered);
    ("dropped", float_of_int r.Experiments.fb_dropped);
    ("cycles", float_of_int r.Experiments.fb_cycles);
    ("throughput", r.Experiments.fb_throughput);
    ("hop_p50", float_of_int r.Experiments.fb_hop_p50);
    ("hop_p99", float_of_int r.Experiments.fb_hop_p99);
    ("e2e_p50", float_of_int r.Experiments.fb_e2e_p50);
    ("e2e_p99", float_of_int r.Experiments.fb_e2e_p99);
    ("hops_mean", r.Experiments.fb_hops_mean);
    ("seconds", r.Experiments.fb_seconds);
  ]

let run_forge () =
  let r = Experiments.forge () in
  let module C = Mp5_util.Codec in
  Format.printf "@.forge: every field of %d snapshots forged (mp5-snap/1 and mp5-fab/1)@."
    r.Experiments.fo_snapshots;
  let ruled = List.fold_left (fun n (_, c) -> n + c) 0 r.Experiments.fo_rules in
  Format.printf "  %d fields, %d with a rule (%s)@." r.Experiments.fo_fields ruled
    (String.concat ", "
       (List.map
          (fun (rule, n) -> Printf.sprintf "%s %d" (C.rule_name rule) n)
          r.Experiments.fo_rules));
  Format.printf "  %d cases (%d resumed, the rest rejected), %.1fs@." r.Experiments.fo_cases
    r.Experiments.fo_decoded r.Experiments.fo_seconds;
  List.iteri
    (fun i f -> if i < 20 then Format.printf "  FAILED %s@." f)
    r.Experiments.fo_failures;
  if r.Experiments.fo_failures <> [] then
    failwith "forge: a forged snapshot raised or was rejected without a position";
  [
    ("snapshots", float_of_int r.Experiments.fo_snapshots);
    ("fields", float_of_int r.Experiments.fo_fields);
    ("fields_with_rule", float_of_int ruled);
    ("cases", float_of_int r.Experiments.fo_cases);
    ("resumed", float_of_int r.Experiments.fo_decoded);
    ("failures", float_of_int (List.length r.Experiments.fo_failures));
    ("seconds", r.Experiments.fo_seconds);
  ]

let all =
  [ "table1"; "sram"; "d2"; "d3"; "d4"; "fig7a"; "fig7b"; "fig7c"; "fig7d"; "fig8";
    "ablate-priority"; "ablate-period"; "ablate-fifo"; "ablate-gate"; "degraded";
    "sim-micro"; "longrun"; "chaos"; "fabric"; "forge" ]

(* Timing experiments must not share the process with an idle worker
   domain: every minor collection then pays a stop-the-world rendezvous,
   which inflates the simulator micro-benchmarks by ~40% on an otherwise
   idle machine.  Quiesce (not shutdown) the pool for the measurement;
   the next parallel map respawns the workers lazily. *)
let serially f =
  Experiments.quiesce_pool ();
  f ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N and --json PATH take a value; strip both before the
     experiment-name filter. *)
  let jobs = ref 1 in
  let json_path = ref "BENCH_results.json" in
  let metrics_dir = ref None in
  let profile_dir = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse acc rest
        | _ ->
            Format.eprintf "--jobs expects a positive integer, got %S@." n;
            exit 1)
    | "--json" :: path :: rest ->
        json_path := path;
        parse acc rest
    | "--metrics-dir" :: dir :: rest ->
        metrics_dir := Some dir;
        parse acc rest
    | "--profile-dir" :: dir :: rest ->
        profile_dir := Some dir;
        parse acc rest
    | "--chaos-dir" :: dir :: rest ->
        chaos_dir := Some dir;
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let scale =
    if full then Experiments.full
    else if smoke then Experiments.smoke
    else Experiments.quick
  in
  Experiments.set_jobs !jobs;
  let wanted = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let wanted = if wanted = [] then all else wanted in
  (* Exit-code contract (see README): unknown experiment names are a
     usage error, caught before anything runs. *)
  (match List.filter (fun n -> not (List.mem n all)) wanted with
  | [] -> ()
  | unknown ->
      List.iter
        (fun other ->
          Format.eprintf "unknown experiment %S (known: %s)@." other (String.concat ", " all))
        unknown;
      exit 1);
  if not full then
    Format.printf "(%s scale: %d packets, %d runs per point; pass --full for paper scale)@."
      (if smoke then "smoke" else "reduced")
      scale.Experiments.n_packets scale.Experiments.runs;
  if !jobs > 1 then Format.printf "(running with %d domains)@." (Experiments.jobs ());
  List.iter
    (fun dir_ref ->
      match !dir_ref with
      | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
      | _ -> ())
    [ metrics_dir; profile_dir ];
  let telemetry_ok = ref true in
  let failed = ref false in
  Printexc.record_backtrace true;
  (* One instrumented representative run per experiment, written next to
     BENCH_results.json and schema-validated on the spot (CI gates on
     it).  Probes run off the domain pool; a single extra run per
     experiment. *)
  let write_probe name =
    match !metrics_dir with
    | None -> ()
    | Some dir -> (
        match Experiments.metrics_probe scale name with
        | None -> ()
        | Some m ->
            let path = Filename.concat dir (name ^ ".metrics.json") in
            let s = Mp5_obs.Metrics.json_string m in
            let check label = function
              | Ok () -> ()
              | Error e ->
                  Format.eprintf "%s: telemetry %s check failed: %s@." name label e;
                  telemetry_ok := false
            in
            check "invariant" (Mp5_obs.Metrics.validate m);
            check "schema" (Mp5_obs.Metrics.validate_json s);
            let oc = open_out path in
            output_string oc s;
            output_char oc '\n';
            close_out oc)
  in
  (* Same discipline for the phase-profile snapshots (--profile-dir):
     one full-mode profiled run per experiment, validated before it is
     written, so the phase breakdown ships next to BENCH_results.json. *)
  let write_prof_probe name =
    match !profile_dir with
    | None -> ()
    | Some dir -> (
        match Experiments.profile_probe scale name with
        | None -> ()
        | Some pf ->
            let path = Filename.concat dir (name ^ ".prof.json") in
            let s = Mp5_obs.Prof.json_string pf in
            let check label = function
              | Ok () -> ()
              | Error e ->
                  Format.eprintf "%s: profile %s check failed: %s@." name label e;
                  telemetry_ok := false
            in
            check "invariant" (Mp5_obs.Prof.validate pf);
            check "schema" (Mp5_obs.Prof.validate_json s);
            let oc = open_out path in
            output_string oc s;
            output_char oc '\n';
            close_out oc)
  in
  let results = ref [] in
  List.iter
    (fun name ->
      let runner =
        match name with
        | "table1" -> Some (fun () -> run_table1 ())
        | "sram" -> Some (fun () -> run_sram ())
        | "d2" -> Some (fun () -> run_d2 scale)
        | "d3" -> Some (fun () -> run_d3 scale)
        | "d4" -> Some (fun () -> run_d4 scale)
        | "fig7a" -> Some (fun () -> run_fig7 scale `A)
        | "fig7b" -> Some (fun () -> run_fig7 scale `B)
        | "fig7c" -> Some (fun () -> run_fig7 scale `C)
        | "fig7d" -> Some (fun () -> run_fig7 scale `D)
        | "fig8" -> Some (fun () -> run_fig8 scale)
        | "ablate-priority" -> Some (fun () -> run_ablate_priority scale)
        | "ablate-period" -> Some (fun () -> run_ablate_period scale)
        | "ablate-fifo" -> Some (fun () -> run_ablate_fifo scale)
        | "ablate-gate" -> Some (fun () -> run_ablate_gate scale)
        | "degraded" -> Some (fun () -> run_degraded scale)
        | "sim-micro" -> Some (fun () -> serially (fun () -> run_sim_micro scale))
        | "longrun" -> Some (fun () -> serially (fun () -> run_longrun scale))
        (* serially: the supervisor forks, and forking with live worker
           domains is unsafe. *)
        | "chaos" -> Some (fun () -> serially (fun () -> run_chaos scale))
        (* serially: the fabric row reports its run's wall-clock. *)
        | "fabric" -> Some (fun () -> serially (fun () -> run_fabric scale))
        | "forge" -> Some run_forge
        | _ -> None (* unreachable: names validated above *)
      in
      match runner with
      | None -> ()
      | Some f -> (
          let t0 = Unix.gettimeofday () in
          (* A raising experiment (including a task failure surfaced by
             the domain pool) aborts only itself: the remaining
             experiments still run and the process exits 3 at the end. *)
          match f () with
          | metrics ->
              let seconds = Unix.gettimeofday () -. t0 in
              results := (name, seconds, metrics) :: !results;
              write_probe name;
              write_prof_probe name
          | exception exn ->
              Format.eprintf "experiment %s failed: %s@.%s@." name
                (Printexc.to_string exn)
                (Printexc.get_backtrace ());
              failed := true))
    wanted;
  let results = List.rev !results in
  write_json !json_path ~scale ~jobs:(Experiments.jobs ()) results;
  Format.printf "@.wall-clock per experiment:@.";
  List.iter (fun (name, s, _) -> Format.printf "  %-16s %8.2fs@." name s) results;
  Format.printf "results written to %s@." !json_path;
  (match !metrics_dir with
  | Some dir -> Format.printf "telemetry snapshots written to %s/@." dir
  | None -> ());
  (match !profile_dir with
  | Some dir -> Format.printf "profile snapshots written to %s/@." dir
  | None -> ());
  if !failed || not !telemetry_ok then exit 3
