(* Tests for the telemetry subsystem (lib/obs): metrics invariants across
   simulator modes, pure-observer bit-identity, export round-trips, drop
   and remap attribution, and the structured event trace. *)

module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Machine = Mp5_banzai.Machine
module Metrics = Mp5_obs.Metrics
module Trace = Mp5_obs.Trace
module Rng = Mp5_util.Rng
module Tracegen = Mp5_workload.Tracegen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let line_rate_trace ~k ~n ~fields gen =
  Array.init n (fun i ->
      { Machine.time = i / k; port = i mod k; headers = Array.init fields (gen i) })

let stages_of sw =
  Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages

let instrumented ?params ~k sw trace =
  let m = Metrics.create ~stages:(stages_of sw) ~k in
  let tr = Trace.create () in
  let r = Switch.run ?params ~metrics:m ~events:tr ~k sw trace in
  (r, m, tr)

let accesses_logged (r : Sim.result) =
  Hashtbl.fold (fun _ seqs acc -> acc + List.length seqs) r.Sim.access_seqs 0

(* --- invariants across modes --- *)

let mode_name = function
  | Sim.Mp5 -> "mp5"
  | Sim.Static_shard -> "static_shard"
  | Sim.No_d4 -> "no_d4"
  | Sim.Naive_single -> "naive_single"
  | Sim.Ideal -> "ideal"

let test_invariants_all_modes () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let k = 4 in
  let n = 3000 in
  List.iter
    (fun mode ->
      let name = mode_name mode in
      let rng = Rng.create 31 in
      let trace = line_rate_trace ~k ~n ~fields:2 (fun _ _ -> Rng.int rng 100000) in
      let params = { (Sim.default_params ~k) with Sim.mode } in
      let r, m, _ = instrumented ~params ~k sw trace in
      (match Metrics.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invariant violated: %s" name e);
      let stages = stages_of sw in
      (* Cycle classification is total: every (stage, pipeline) slot is
         exactly one of busy/idle/blocked on every visited cycle. *)
      check_int
        (name ^ ": busy+idle+blocked = stages*k*cycles")
        (stages * k * m.Metrics.m_cycles)
        (Metrics.total m.Metrics.m_busy + Metrics.total m.Metrics.m_idle
        + Metrics.total m.Metrics.m_blocked);
      check_int (name ^ ": arrivals = trace length") n m.Metrics.m_arrivals;
      check_int (name ^ ": delivered matches result") r.Sim.delivered m.Metrics.m_delivered;
      check_int (name ^ ": drops match result") r.Sim.dropped (Metrics.dropped_total m);
      check_int (name ^ ": latency histogram mass = deliveries") m.Metrics.m_delivered
        (Metrics.lat_mass m);
      (* Every logged stateful access required a crossbar transfer into
         its stage (stage 0 is never stateful), so the access log is a
         lower bound on total transfers. *)
      check
        (name ^ ": transfers >= logged accesses")
        true
        (Metrics.total m.Metrics.m_xfer >= accesses_logged r);
      (match mode with
      | Sim.No_d4 ->
          check_int (name ^ ": no phantoms without D4") 0 m.Metrics.m_phantom_scheduled
      | _ ->
          check
            (name ^ ": a phantom per executed access")
            true
            (m.Metrics.m_phantom_scheduled >= accesses_logged r));
      check_int
        (name ^ ": phantom conservation")
        m.Metrics.m_phantom_scheduled
        (m.Metrics.m_phantom_delivered + m.Metrics.m_phantom_doomed
        + m.Metrics.m_phantom_dropped);
      (* Instrumentation is a pure observer. *)
      let bare = Switch.run ~params ~k sw trace in
      check (name ^ ": bit-identical with instrumentation") true (Sim.results_equal r bare))
    [ Sim.Mp5; Sim.Static_shard; Sim.No_d4; Sim.Ideal ]

let test_metrics_dims_checked () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let trace = line_rate_trace ~k:2 ~n:16 ~fields:1 (fun _ _ -> 0) in
  let m = Metrics.create ~stages:1 ~k:7 in
  check "mis-sized metrics rejected" true
    (try
       ignore (Switch.run ~metrics:m ~k:2 sw trace);
       false
     with Invalid_argument _ -> true);
  (* A resume reports it as a mismatch, into the suspended machine (the
     very string, first: every resume empties the parking slot) and
     into a new one (a copy). *)
  let params = Sim.default_params ~k:2 in
  let snap =
    match
      Sim.run_source ~metrics:(Metrics.create ~stages:(stages_of sw) ~k:2) ~cycle_budget:3 params
        sw.Switch.prog (Mp5_workload.Packet_source.of_array trace)
    with
    | Sim.Suspended s -> s
    | Sim.Completed _ -> Alcotest.fail "expected a suspension"
  in
  List.iter
    (fun (what, snapshot) ->
      let source = Mp5_workload.Packet_source.of_array trace in
      match Sim.resume ~metrics:m ~snapshot sw.Switch.prog source with
      | Error (Sim.Mismatch _) -> ()
      | Error (Sim.Corrupt msg) ->
          Alcotest.failf "%s: mis-sized metrics read as corrupt: %s" what msg
      | Ok _ -> Alcotest.failf "%s: mis-sized metrics accepted on resume" what)
    [ ("very string", snap); ("copy", Bytes.to_string (Bytes.of_string snap)) ]

(* --- drop attribution --- *)

let test_drop_causes_finite_fifo () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let k = 4 in
  let trace = line_rate_trace ~k ~n:4000 ~fields:1 (fun _ _ -> 0) in
  let params =
    { (Sim.default_params ~k) with Sim.fifo_capacity = 4; adaptive_fifos = false }
  in
  let r, m, _ = instrumented ~params ~k sw trace in
  check "overload drops" true (r.Sim.dropped > 0);
  check_int "causes sum to total" (Metrics.dropped_total m)
    (m.Metrics.m_drop_fifo_full + m.Metrics.m_drop_no_phantom + m.Metrics.m_drop_starved);
  (* With the phantom channel on, admission fails when no phantom slot is
     left for the packet — attributed as no_phantom, not fifo_full. *)
  check "phantom-mode drops attributed to no_phantom" true (m.Metrics.m_drop_no_phantom > 0);
  check_int "no starvation guard, no starved drops" 0 m.Metrics.m_drop_starved

let test_drop_causes_starvation () =
  let sw =
    Switch.create_exn
      {|
struct Packet { int stateful; int out; };
int count;
void func(struct Packet p) {
    if (p.stateful == 1) { count = count + 1; p.out = count; }
}
|}
  in
  let k = 4 in
  let trace = line_rate_trace ~k ~n:4000 ~fields:2 (fun i f -> if f = 0 then i land 1 else 0) in
  let params = { (Sim.default_params ~k) with Sim.starvation_threshold = Some 10 } in
  let r, m, _ = instrumented ~params ~k sw trace in
  check "guard fired" true (r.Sim.dropped_stateless > 0);
  check_int "starved drops = stateless victims" r.Sim.dropped_stateless
    m.Metrics.m_drop_starved

(* --- remap accounting --- *)

let test_remap_accounting () =
  (* Skewed access from a deliberately bad (blocked) initial placement:
     the D2 heuristic must move cells, and each move must not increase
     the measured pipeline-load imbalance. *)
  let setup_stateful = 4 and reg_size = 512 and k = 4 in
  let sw =
    Switch.create_exn ~pad_to_stages:16
      (Mp5_apps.Sources.sensitivity_program ~stateful:setup_stateful ~reg_size)
  in
  let trace =
    Tracegen.sensitivity
      {
        Tracegen.n_packets = 3000;
        k;
        pkt_bytes = 64;
        n_fields = setup_stateful + 2;
        index_fields = List.init setup_stateful Fun.id;
        reg_size;
        pattern = Tracegen.Skewed;
        n_ports = 64;
        seed = 200;
      }
  in
  let params =
    {
      (Sim.default_params ~k) with
      Sim.shard_init = `Blocked;
      fifo_capacity = 8;
      adaptive_fifos = false;
    }
  in
  let _, m, tr = instrumented ~params ~k sw trace in
  check "remap periods visited" true (m.Metrics.m_remap_periods > 0);
  check "heuristic moved cells" true (m.Metrics.m_remap_moves > 0);
  check "moves never increase imbalance" true
    (m.Metrics.m_imb_after <= m.Metrics.m_imb_before);
  (* Every move shows up as a system event in the trace (seq = -1 passes
     any packet filter). *)
  let remap_events = ref 0 in
  Trace.iter
    (fun ~kind ~cycle:_ ~seq ~stage:_ ~pipe:_ ~aux:_ ->
      if kind = Trace.Remap then begin
        incr remap_events;
        check_int "remap events carry no packet id" (-1) seq
      end)
    tr;
  check_int "one trace event per move" m.Metrics.m_remap_moves !remap_events

(* --- exporters --- *)

let run_one () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 33 in
  let trace = line_rate_trace ~k:4 ~n:2000 ~fields:2 (fun _ _ -> Rng.int rng 1000) in
  instrumented ~k:4 sw trace

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_roundtrip () =
  let _, m, _ = run_one () in
  let s = Metrics.json_string m in
  check "schema tag present" true (contains s "mp5-metrics/1");
  (match Metrics.validate_json s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serialized snapshot failed validation: %s" e);
  (* A corrupted snapshot must not validate. *)
  match Metrics.validate_json "{\"schema\":\"mp5-metrics/1\"}" with
  | Ok () -> Alcotest.fail "truncated snapshot accepted"
  | Error _ -> ()

(* The validator must cross-check the per-slot breakdown against the
   [cycle_states] scalars: a snapshot whose slot sums drift from its own
   totals (a truncated write, a buggy merge) has to be rejected, not
   waved through on array length alone. *)
let test_slot_sum_crosscheck () =
  let module Json = Mp5_obs.Json in
  let _, m, _ = run_one () in
  let j =
    match Json.of_string (Metrics.json_string m) with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot did not parse: %s" e
  in
  (* Bump one slot's busy count by 1: every scalar invariant still
     holds, only the slots-vs-scalars cross-check can catch it. *)
  let tamper_slot = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "busy", Json.Int n -> ("busy", Json.Int (n + 1))
               | kv -> kv)
             fields)
    | v -> v
  in
  let tampered =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "slots", Json.List (s0 :: rest) ->
                   ("slots", Json.List (tamper_slot s0 :: rest))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "snapshot is not a JSON object"
  in
  match Metrics.validate_json (Json.to_string tampered) with
  | Ok () -> Alcotest.fail "slot/scalar disagreement accepted"
  | Error e -> check "error names the per-slot sum" true (contains e "per-slot")

let test_prometheus_exposition () =
  let _, m, _ = run_one () in
  let s = Metrics.to_prometheus m in
  List.iter
    (fun needle ->
      if not (contains s needle) then Alcotest.failf "prometheus output missing %S" needle)
    [
      "# TYPE mp5_cycles counter";
      "mp5_slot_cycles{stage=\"0\",pipe=\"0\",state=\"busy\"}";
      "mp5_latency_cycles_bucket{le=\"+Inf\"} ";
      Printf.sprintf "mp5_latency_cycles_count %d" m.Metrics.m_lat_count;
      Printf.sprintf "mp5_packets{event=\"delivered\"} %d" m.Metrics.m_delivered;
    ]

let test_pp_report () =
  let _, m, _ = run_one () in
  let s = Format.asprintf "%a" Metrics.pp m in
  check "report mentions cycles" true (contains s "cycles");
  check "report is one screen" true (List.length (String.split_on_char '\n' s) < 40)

(* --- event trace --- *)

let test_trace_ring_truncation () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 34 in
  let trace = line_rate_trace ~k:4 ~n:2000 ~fields:2 (fun _ _ -> Rng.int rng 1000) in
  let tr = Trace.create ~capacity:64 () in
  let _ = Switch.run ~events:tr ~k:4 sw trace in
  check "overflowed" true (Trace.truncated tr);
  check_int "ring holds exactly capacity" 64 (Trace.recorded tr);
  check "seen counts overwritten events" true (Trace.seen tr > 64);
  let jsonl = Trace.to_jsonl tr in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  check "header line carries schema" true (contains (List.hd lines) "mp5-trace/1");
  check "header reports truncation" true (contains (List.hd lines) "\"truncated\": true");
  check_int "one line per event plus header" (64 + 1) (List.length lines)

let test_trace_packet_filter () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 35 in
  let trace = line_rate_trace ~k:4 ~n:2000 ~fields:2 (fun _ _ -> Rng.int rng 1000) in
  let tr = Trace.create ~packets:[ 3; 17 ] () in
  let _ = Switch.run ~events:tr ~k:4 sw trace in
  check "filtered trace non-empty" true (Trace.recorded tr > 0);
  let arrivals = ref 0 and delivers = ref 0 in
  Trace.iter
    (fun ~kind ~cycle:_ ~seq ~stage:_ ~pipe:_ ~aux:_ ->
      if seq >= 0 && seq <> 3 && seq <> 17 then
        Alcotest.failf "packet %d leaked through the filter" seq;
      match kind with
      | Trace.Arrival -> incr arrivals
      | Trace.Deliver -> incr delivers
      | _ -> ())
    tr;
  check_int "both packets arrived" 2 !arrivals;
  check_int "both packets delivered" 2 !delivers

let test_trace_event_counts_match_metrics () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 36 in
  let k = 4 in
  let trace = line_rate_trace ~k ~n:500 ~fields:2 (fun _ _ -> Rng.int rng 1000) in
  let m = Metrics.create ~stages:(stages_of sw) ~k in
  let tr = Trace.create ~capacity:1_000_000 () in
  let _ = Switch.run ~metrics:m ~events:tr ~k sw trace in
  check "no truncation at this capacity" false (Trace.truncated tr);
  let count k =
    let n = ref 0 in
    Trace.iter (fun ~kind ~cycle:_ ~seq:_ ~stage:_ ~pipe:_ ~aux:_ -> if kind = k then incr n) tr;
    !n
  in
  check_int "arrival events = arrivals" m.Metrics.m_arrivals (count Trace.Arrival);
  check_int "deliver events = deliveries" m.Metrics.m_delivered (count Trace.Deliver);
  check_int "drop events = drops" (Metrics.dropped_total m) (count Trace.Drop);
  check_int "crossbar events = transfers" (Metrics.total m.Metrics.m_xfer)
    (count Trace.Crossbar);
  check_int "phantom deliveries (incl. doomed and ring-dropped) traced"
    (m.Metrics.m_phantom_delivered + m.Metrics.m_phantom_doomed + m.Metrics.m_phantom_dropped)
    (count Trace.Phantom_deliver);
  check_int "blocked slot-cycles traced" (Metrics.total m.Metrics.m_blocked)
    (count Trace.Phantom_block)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "invariants across modes" `Quick test_invariants_all_modes;
          Alcotest.test_case "dimension check" `Quick test_metrics_dims_checked;
          Alcotest.test_case "drop causes: finite FIFOs" `Quick test_drop_causes_finite_fifo;
          Alcotest.test_case "drop causes: starvation guard" `Quick
            test_drop_causes_starvation;
          Alcotest.test_case "remap accounting" `Quick test_remap_accounting;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "slot sum cross-check" `Quick test_slot_sum_crosscheck;
          Alcotest.test_case "prometheus" `Quick test_prometheus_exposition;
          Alcotest.test_case "pp report" `Quick test_pp_report;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring truncation" `Quick test_trace_ring_truncation;
          Alcotest.test_case "packet filter" `Quick test_trace_packet_filter;
          Alcotest.test_case "event counts match metrics" `Quick
            test_trace_event_counts_match_metrics;
        ] );
    ]
