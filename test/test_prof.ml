(* Span-profiler invariants (lib/obs/prof).

   Wall-clock measurements are host-dependent, so nothing here pins
   absolute numbers — only accounting shape: the cycle loop records a
   fixed set of spans per visited cycle, whichever mode is set; phase spans are disjoint within a
   leg, so their sum cannot exceed wall time (modulo clock
   granularity); snapshots round-trip through their own validator; and
   the Chrome trace export parses and carries its spans on a named
   track. *)

module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Machine = Mp5_banzai.Machine
module Prof = Mp5_obs.Prof
module Json = Mp5_obs.Json
module Rng = Mp5_util.Rng

let check = Alcotest.(check bool)

let line_rate_trace ~k ~n ~fields gen =
  Array.init n (fun i ->
      { Machine.time = i / k; port = i mod k; headers = Array.init fields (gen i) })

let trace_of ~k ~n ~seed =
  let rng = Rng.create seed in
  line_rate_trace ~k ~n ~fields:2 (fun _ _ -> Rng.int rng 1000)

let profiled ~mode ~k ~n ~seed () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let pf = Prof.create ~mode () in
  let r = Switch.run ~prof:pf ~k sw (trace_of ~k ~n ~seed) in
  (r, pf)

let all_phases =
  [
    Prof.Deliver;
    Prof.Apply;
    Prof.Pop;
    Prof.Exec;
    Prof.Movement;
    Prof.Sweep;
    Prof.Source;
    Prof.Checkpoint;
    Prof.Remap;
    Prof.Fault;
  ]

(* Sequential spans never overlap, so the per-phase sums are bounded by
   wall time.  Allow 10% + 50µs of slack for clock granularity on very
   short runs. *)
let within_wall ~label pf phases =
  let wall = Prof.wall_ns pf in
  let sum = List.fold_left (fun acc p -> acc + Prof.total_ns pf p) 0 phases in
  check (label ^ ": wall time recorded") true (wall > 0);
  if sum > wall + (wall / 10) + 50_000 then
    Alcotest.failf "%s: phase spans (%d ns) exceed wall time (%d ns)" label sum wall

(* Exact span counts: every visited cycle (a heartbeat each) records
   the loop's fixed set of spans and no other cycle-phase span —
   Deliver, Apply, Source, Pop, Exec, Movement, plus Sweep with metrics
   attached.  Checkpoint spans follow the snapshots taken. *)
let counted ~mode ?loop ?metrics per_cycle =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let pf = Prof.create ~mode () in
  let beats = ref 0 and ckpts = ref 0 in
  (match
     Sim.run_source ?loop ~prof:pf ?metrics ~heartbeat_every:1
       ~on_heartbeat:(fun ~cycle:_ -> incr beats)
       ~checkpoint_every:97
       ~on_checkpoint:(fun ~cycle:_ _ -> incr ckpts)
       (Sim.default_params ~k:4) sw.Switch.prog
       (Mp5_workload.Packet_source.of_array (trace_of ~k:4 ~n:3000 ~seed:46))
   with
  | Sim.Completed _ -> ()
  | Sim.Suspended _ -> Alcotest.fail "unbudgeted run suspended");
  (match Prof.validate pf with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile failed validation: %s" e);
  within_wall ~label:"seq" pf all_phases;
  check "cycles visited and checkpoints taken" true (!beats > 0 && !ckpts > 0);
  List.iter
    (fun phase ->
      let want = if List.mem phase per_cycle then !beats else 0 in
      Alcotest.(check int) (Prof.phase_name phase ^ " spans") want (Prof.count pf phase))
    Prof.[ Deliver; Apply; Pop; Exec; Movement; Sweep; Source ];
  Alcotest.(check int) "checkpoint spans" !ckpts (Prof.count pf Prof.Checkpoint);
  pf

let test_full_seq_accounting () =
  let phases = Prof.[ Deliver; Apply; Source; Pop; Exec; Movement ] in
  ignore (counted ~mode:Prof.Full phases : Prof.t);
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let stages = Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let m = Mp5_obs.Metrics.create ~stages ~k:4 in
  let pf = counted ~mode:Prof.Full ~metrics:m (Prof.Sweep :: phases) in
  check "remap boundaries visited" true (m.Mp5_obs.Metrics.m_remap_periods > 0);
  Alcotest.(check int) "remap spans" m.Mp5_obs.Metrics.m_remap_periods (Prof.count pf Prof.Remap)

(* The mode is a label: a sampled profile records the one cycle loop's
   per-phase spans, the same set as a full profile.  The run passes
   [~loop:Fast], as the benchmark driver does; it has no effect. *)
let test_sampled_seq_accounting () =
  ignore
    (counted ~mode:Prof.Sampled ~loop:Sim.Fast Prof.[ Deliver; Apply; Source; Pop; Exec; Movement ]
      : Prof.t)

let test_json_roundtrip () =
  let _, pf = profiled ~mode:Prof.Full ~k:4 ~n:2000 ~seed:44 () in
  let s = Prof.json_string pf in
  (match Prof.validate_json s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serialized profile failed validation: %s" e);
  (* Histogram mass must agree with span counts: tamper one bucket. *)
  (match Json.of_string s with
  | Error e -> Alcotest.failf "profile snapshot did not parse: %s" e
  | Ok j ->
      check "schema tag" true (Json.member "schema" j = Some (Json.String "mp5-prof/1")));
  match Prof.validate_json "{\"schema\":\"mp5-prof/1\"}" with
  | Ok () -> Alcotest.fail "truncated profile snapshot accepted"
  | Error _ -> ()

let test_chrome_trace () =
  let _, pf = profiled ~mode:Prof.Sampled ~k:4 ~n:2000 ~seed:45 () in
  match Json.of_string (Prof.chrome_string pf) with
  | Error e -> Alcotest.failf "chrome trace did not parse: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          check "trace has events" true (List.length evs > 0);
          (* Complete spans carry ts/dur; every event sits on a pid-1
             track with a per-domain tid. *)
          List.iter
            (fun ev ->
              match Json.member "ph" ev with
              | Some (Json.String "X") ->
                  check "span has dur" true (Json.member "dur" ev <> None);
                  check "span on pid 1" true (Json.member "pid" ev = Some (Json.Int 1))
              | _ -> ())
            evs;
          let tids =
            List.filter_map (fun ev -> Json.member "tid" ev) evs
            |> List.sort_uniq compare
          in
          check "spans on one track" true (tids = [ Json.Int 1 ])
      | _ -> Alcotest.fail "chrome trace lacks a traceEvents array")

let () =
  Alcotest.run "prof"
    [
      ( "accounting",
        [
          Alcotest.test_case "full sequential spans within wall" `Quick
            test_full_seq_accounting;
          Alcotest.test_case "sampled keeps fast-loop shape" `Quick
            test_sampled_seq_accounting;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        ] );
    ]
