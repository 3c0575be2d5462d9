(* Integration tests for the MP5 cycle-level simulator: functional
   equivalence, fundamental limits, invariants, drops, knobs. *)

module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Equiv = Mp5_core.Equiv
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Rng = Mp5_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let line_rate_trace ~k ~n ~fields gen =
  Array.init n (fun i ->
      { Machine.time = i / k; port = i mod k; headers = Array.init fields (gen i) })

let verify ?params ~k sw trace =
  let r, rep = Switch.verify ?params ~k sw trace in
  (r, rep)

let test_sequencer_equivalence () =
  let sw = Switch.create_exn Mp5_apps.Sources.sequencer in
  let rng = Rng.create 1 in
  let trace = line_rate_trace ~k:4 ~n:3000 ~fields:2 (fun _ _ -> Rng.int rng 8) in
  let r, rep = verify ~k:4 sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check_int "no violations" 0 rep.Equiv.c1_violations;
  check_int "all delivered" 3000 r.Sim.delivered

let test_all_apps_equivalent_all_ks () =
  List.iter
    (fun (name, src) ->
      let sw = Switch.create_exn src in
      List.iter
        (fun k ->
          let pkts = Mp5_workload.Tracegen.flows ~seed:3 ~n_packets:2000 ~k ~concurrency:32 () in
          let trace = Mp5_apps.Traces.trace_for name pkts in
          let _, rep = verify ~k sw trace in
          if not (Equiv.equivalent rep) then
            Alcotest.failf "%s not equivalent at k=%d: %s" name k
              (Format.asprintf "%a" Equiv.pp rep))
        [ 1; 2; 3; 4; 8 ])
    Mp5_apps.Sources.all_named

let test_global_counter_limit () =
  (* A single cell accessed by every packet caps throughput at 1/k. *)
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:1 (fun _ _ -> 0) in
  let r, rep = verify ~k:4 sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check "throughput ~ 1/k" true (abs_float (r.Sim.normalized_throughput -. 0.25) < 0.02)

let test_stateless_line_rate () =
  let sw =
    Switch.create_exn
      "struct Packet { int a; int b; };\nvoid func(struct Packet p) { p.a = p.a + p.b; }"
  in
  let rng = Rng.create 2 in
  let trace = line_rate_trace ~k:8 ~n:4000 ~fields:2 (fun _ _ -> Rng.int rng 100) in
  let r, rep = verify ~k:8 sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check "line rate" true (r.Sim.normalized_throughput > 0.999);
  check_int "never queued (Invariant 2)" 0 r.Sim.max_queue

let test_k1_trivially_equivalent () =
  let sw = Switch.create_exn Mp5_apps.Sources.figure3 in
  let rng = Rng.create 3 in
  let trace = line_rate_trace ~k:1 ~n:500 ~fields:5 (fun _ _ -> Rng.int rng 4) in
  let r, rep = verify ~k:1 sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check "line rate at k=1" true (r.Sim.normalized_throughput > 0.99)

let test_no_d4_violates () =
  (* Reordering needs at least two stateful stages: queueing variance at
     the first lets packets overtake each other before the second. *)
  let sw = Switch.create_exn (Mp5_apps.Sources.sensitivity_program ~stateful:2 ~reg_size:4) in
  let rng = Rng.create 4 in
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:4 (fun _ _ -> Rng.int rng 4) in
  let params = { (Sim.default_params ~k:4) with Sim.mode = Sim.No_d4 } in
  let _, rep = verify ~params ~k:4 sw trace in
  check "C1 violated without D4" true (rep.Equiv.c1_violations > 0);
  (* The updates are non-commutative, so order violations corrupt the
     final register state. *)
  check "not equivalent" false (Equiv.equivalent rep)

let test_naive_single_throughput () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 5 in
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:2 (fun _ _ -> Rng.int rng 100000) in
  let params = { (Sim.default_params ~k:4) with Sim.mode = Sim.Naive_single } in
  let r, rep = verify ~params ~k:4 sw trace in
  check "equivalent (just slow)" true (Equiv.equivalent rep);
  check "1/k throughput" true (abs_float (r.Sim.normalized_throughput -. 0.25) < 0.02)

let test_ideal_equivalent_and_fast () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 6 in
  let trace = line_rate_trace ~k:4 ~n:6000 ~fields:2 (fun _ _ -> Rng.int rng 100000) in
  let params = { (Sim.default_params ~k:4) with Sim.mode = Sim.Ideal } in
  let r, rep = verify ~params ~k:4 sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check "close to line rate" true (r.Sim.normalized_throughput > 0.9)

let test_static_shard_equivalent () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 7 in
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:2 (fun _ _ -> Rng.int rng 100000) in
  let params =
    { (Sim.default_params ~k:4) with Sim.mode = Sim.Static_shard; shard_init = `Random 9 }
  in
  let _, rep = verify ~params ~k:4 sw trace in
  check "static sharding keeps correctness" true (Equiv.equivalent rep)

let test_finite_fifo_drops () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:1 (fun _ _ -> 0) in
  let params =
    { (Sim.default_params ~k:4) with Sim.fifo_capacity = 4; adaptive_fifos = false }
  in
  let r = Switch.run ~params ~k:4 sw trace in
  check "drops under overload" true (r.Sim.dropped > 0);
  check_int "every packet accounted" 4000 (r.Sim.delivered + r.Sim.dropped);
  (* Delivered packets must still be correctly sequenced: the golden
     prefix property does not hold under drops, but the exit headers must
     be gapless per the surviving access order. *)
  let seqnos = List.map (fun (_, h) -> h.(0)) r.Sim.headers_out in
  let sorted = List.sort compare seqnos in
  check "sequencer outputs strictly increasing set" true
    (List.length (List.sort_uniq compare sorted) = List.length sorted)

let test_adaptive_fifo_no_drops () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let trace = line_rate_trace ~k:4 ~n:3000 ~fields:1 (fun _ _ -> 0) in
  let r = Switch.run ~k:4 sw trace in
  check_int "no drops" 0 r.Sim.dropped

let test_ecn_marking () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  let trace = line_rate_trace ~k:4 ~n:2000 ~fields:1 (fun _ _ -> 0) in
  let params = { (Sim.default_params ~k:4) with Sim.ecn_threshold = Some 4 } in
  let r = Switch.run ~params ~k:4 sw trace in
  check "marks under congestion" true (r.Sim.marked > 0);
  let params2 = { (Sim.default_params ~k:4) with Sim.ecn_threshold = Some 1_000_000 } in
  let r2 = Switch.run ~params:params2 ~k:4 sw trace in
  check_int "no marks under huge threshold" 0 r2.Sim.marked

let test_latencies_positive () =
  let sw = Switch.create_exn Mp5_apps.Sources.sequencer in
  let rng = Rng.create 8 in
  let trace = line_rate_trace ~k:2 ~n:500 ~fields:2 (fun _ _ -> Rng.int rng 8) in
  let r = Switch.run ~k:2 sw trace in
  let stages = Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  List.iter
    (fun (_, lat) -> check "latency at least pipeline depth" true (lat >= stages - 1))
    r.Sim.latencies

let test_determinism () =
  let sw = Switch.create_exn Mp5_apps.Sources.conga in
  let pkts = Mp5_workload.Tracegen.flows ~seed:11 ~n_packets:2000 ~k:4 ~concurrency:32 () in
  let trace = Mp5_apps.Traces.trace_for "conga" pkts in
  let r1 = Switch.run ~k:4 sw trace in
  let r2 = Switch.run ~k:4 sw trace in
  check "same exit order" true (r1.Sim.exit_order = r2.Sim.exit_order);
  check "same store" true (Store.equal r1.Sim.store r2.Sim.store);
  check "same throughput" true (r1.Sim.normalized_throughput = r2.Sim.normalized_throughput)

let test_unresolvable_programs_equivalent () =
  (* Programs exercising the conservative paths stay equivalent. *)
  List.iter
    (fun name ->
      let sw = Switch.create_exn (List.assoc name Mp5_apps.Sources.all_named) in
      let rng = Rng.create 12 in
      let fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
      let trace = line_rate_trace ~k:4 ~n:3000 ~fields (fun _ _ -> Rng.int rng 64) in
      let _, rep = verify ~k:4 sw trace in
      if not (Equiv.equivalent rep) then
        Alcotest.failf "%s: %s" name (Format.asprintf "%a" Equiv.pp rep))
    [ "ddos"; "pointer_chase"; "firewall" ]

let test_stateless_priority_off_still_equivalent () =
  let sw = Switch.create_exn Mp5_apps.Sources.firewall in
  let rng = Rng.create 13 in
  let trace = line_rate_trace ~k:4 ~n:3000 ~fields:4 (fun _ f -> if f = 2 then Rng.int rng 2 else Rng.int rng 32) in
  let params = { (Sim.default_params ~k:4) with Sim.stateless_priority = false } in
  let _, rep = verify ~params ~k:4 sw trace in
  check "correctness unaffected by priority ablation" true (Equiv.equivalent rep)

let test_starvation_guard_drops_stateless () =
  (* All packets hit one counter cell; interleave stateless-only packets
     (guard false) that would otherwise always win the stage slot. *)
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
  let trace = line_rate_trace ~k:4 ~n:4000 ~fields:2 (fun i f -> if f = 0 then i land 1 else 0) in
  let params = { (Sim.default_params ~k:4) with Sim.starvation_threshold = Some 10 } in
  let r = Switch.run ~params ~k:4 sw trace in
  check "stateless victims recorded" true (r.Sim.dropped_stateless > 0);
  check_int "drops accounted" 4000 (r.Sim.delivered + r.Sim.dropped)

(* NAT-style program: only SYN packets are stateful; followers are pure
   pass-through and can overtake their flow's queued SYN under Invariant
   2's stateless priority. *)
let nat_src =
  {|
struct Packet { int src; int dst; int syn; int out; };
int nat[4];
void func(struct Packet p) {
    if (p.syn == 1) {
        nat[hash(p.src, p.dst) % 4] = nat[hash(p.src, p.dst) % 4] + p.src;
    }
}
|}

let nat_trace ~k ~n =
  let rng = Rng.create 21 in
  (* Many short flows: first packet is the SYN. *)
  Array.init n (fun i ->
      let flow = i / 4 in
      let seq_in_flow = i mod 4 in
      ignore (Rng.int rng 2);
      {
        Machine.time = i / k;
        port = i mod k;
        headers = [| flow * 7; flow * 13; (if seq_in_flow = 0 then 1 else 0); 0 |];
      })

let test_flow_reordering_without_dummy_stage () =
  let sw = Switch.create_exn nat_src in
  let n = 4000 in
  let trace = nat_trace ~k:4 ~n in
  let flow_of seq = seq / 4 in
  let _, rep = Switch.verify ~k:4 ~flow_of sw trace in
  check "still functionally equivalent" true (Equiv.equivalent rep);
  check "but flows reorder" true (rep.Equiv.reordered_flows > 0)

let test_flow_order_dummy_stage_fixes_reordering () =
  let flow_order =
    (Mp5_banzai.Expr.Hash [ Mp5_banzai.Expr.Field 0; Mp5_banzai.Expr.Field 1 ], 1024)
  in
  let sw = Switch.create_exn ~flow_order nat_src in
  let n = 4000 in
  let trace = nat_trace ~k:4 ~n in
  let flow_of seq = seq / 4 in
  let _, rep = Switch.verify ~k:4 ~flow_of sw trace in
  check "equivalent with dummy stage" true (Equiv.equivalent rep);
  check_int "no reordered flows" 0 rep.Equiv.reordered_flows

let test_remap_period_zero_ok () =
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let rng = Rng.create 14 in
  let trace = line_rate_trace ~k:4 ~n:2000 ~fields:2 (fun _ _ -> Rng.int rng 1000) in
  let params = { (Sim.default_params ~k:4) with Sim.remap_period = 0 } in
  let _, rep = verify ~params ~k:4 sw trace in
  check "no remap still equivalent" true (Equiv.equivalent rep)

let test_empty_trace_rejected () =
  let sw = Switch.create_exn Mp5_apps.Sources.packet_counter in
  Alcotest.check_raises "empty trace" (Invalid_argument "Sim.run: empty trace") (fun () ->
      ignore (Switch.run ~k:2 sw [||]))

let test_bursty_arrivals () =
  (* Arrival gaps (idle cycles) must not break anything. *)
  let sw = Switch.create_exn Mp5_apps.Sources.sequencer in
  let rng = Rng.create 15 in
  let t = ref 0 in
  let trace =
    Array.init 1000 (fun i ->
        if i mod 7 = 0 then t := !t + 5 else incr t;
        { Machine.time = !t; port = 0; headers = [| Rng.int rng 8; 0 |] })
  in
  let _, rep = verify ~k:4 sw trace in
  check "equivalent with gaps" true (Equiv.equivalent rep)

(* The paper's Figure 3 example (examples/figure3_timeline.ml): A..H
   contend on reg1[1] before reg3[2]; I reads reg2[2] on the other
   pipeline.  With phantoms (Table III) reg3[2] sees A..I in arrival
   order; without D4 (Table II) I overtakes F, G, H.  [Timeline] rebuilds
   each cycle from the event trace, so this pins the trace end to end.
   Lines are trimmed and blank ones dropped; column widths are kept. *)
let figure3_trace =
  let mk h1 h2 h3 mux time port = { Machine.time; port; headers = [| h1; h2; h3; 0; mux |] } in
  Array.append
    (Array.init 8 (fun i -> mk 1 1 2 1 (i / 2) ((i mod 2) + 1)))
    [| mk 1 2 2 0 4 1 |]

let figure3_mp5 =
  [
    "t=0     t=1     t=2     t=3     t=4     t=5     t=6     t=7     t=8     t=9     t=10    t=11    t=12";
    "P0/S1                                           I";
    "P0/S2                   A[b]    B[cd]   C[def]  D[efgh] E[fghI] F[ghI]  G[hI]   H[I]    I";
    "P0/S3                           A       B       C       D       E       F       G       H       I";
    "P0/S4                                   A       B       C       D       E       F       G       H       I";
    "P1/S1           A[B]    B[CD]   C[DEF]  D[EFGH] E[FGH]  F[GH]   G[H]    H";
    "P1/S2";
    "P1/S3";
    "P1/S4";
  ]

let figure3_no_d4 =
  [
    "t=0     t=1     t=2     t=3     t=4     t=5     t=6     t=7     t=8     t=9     t=10    t=11    t=12";
    "P0/S1                                           I";
    "P0/S2                   A       B       C       D       E[I]    I[F]    F[G]    G[H]    H";
    "P0/S3                           A       B       C       D       E       I       F       G       H";
    "P0/S4                                   A       B       C       D       E       I       F       G       H";
    "P1/S1           A[B]    B[CD]   C[DEF]  D[EFGH] E[FGH]  F[GH]   G[H]    H";
    "P1/S2";
    "P1/S3";
    "P1/S4";
  ]

let test_figure3_timeline () =
  let sw = Switch.create_exn Mp5_apps.Sources.figure3 in
  let show mode =
    let params = { (Sim.default_params ~k:2) with Sim.mode } in
    let tl, r = Mp5_core.Timeline.capture ~max_cycles:14 params sw.Switch.prog figure3_trace in
    let lines = String.split_on_char '\n' (Mp5_core.Timeline.render tl) |> List.map String.trim in
    let order = Hashtbl.find r.Sim.access_seqs (2, 2) |> List.map Mp5_core.Timeline.letter in
    (List.filter (( <> ) "") lines, String.concat "," order)
  in
  let lines, order = show Sim.Mp5 in
  Alcotest.(check (list string)) "Table III timeline" figure3_mp5 lines;
  Alcotest.(check string) "Table III reg3[2] order" "A,B,C,D,E,F,G,H,I" order;
  let lines, order = show Sim.No_d4 in
  Alcotest.(check (list string)) "Table II timeline" figure3_no_d4 lines;
  Alcotest.(check string) "Table II reg3[2] order" "A,B,C,D,E,I,F,G,H" order

(* The timeline is rebuilt from the run's event trace: the caller's
   trace gives the same table as a private one, and a trace the run
   overflows is refused rather than rendered from a partial record. *)
let test_timeline_needs_whole_trace () =
  let sw = Switch.create_exn Mp5_apps.Sources.figure3 in
  let params = Sim.default_params ~k:2 in
  let capture events =
    Mp5_core.Timeline.capture ?events params sw.Switch.prog figure3_trace |> fst
  in
  let render events = Mp5_core.Timeline.render (capture events) in
  Alcotest.(check string)
    "caller's trace" (render None)
    (render (Some (Mp5_obs.Trace.create ())));
  Alcotest.check_raises "overflowed trace"
    (Invalid_argument "Timeline.capture: the event trace overflowed") (fun () ->
      ignore (capture (Some (Mp5_obs.Trace.create ~capacity:8 ()))))

let () =
  Alcotest.run "sim"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sequencer" `Quick test_sequencer_equivalence;
          Alcotest.test_case "all apps, all pipeline counts" `Slow
            test_all_apps_equivalent_all_ks;
          Alcotest.test_case "k=1" `Quick test_k1_trivially_equivalent;
          Alcotest.test_case "unresolvable paths" `Quick test_unresolvable_programs_equivalent;
          Alcotest.test_case "bursty arrivals" `Quick test_bursty_arrivals;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "limits",
        [
          Alcotest.test_case "global counter 1/k" `Quick test_global_counter_limit;
          Alcotest.test_case "stateless line rate" `Quick test_stateless_line_rate;
          Alcotest.test_case "naive single pipeline" `Quick test_naive_single_throughput;
          Alcotest.test_case "ideal mode" `Quick test_ideal_equivalent_and_fast;
          Alcotest.test_case "static sharding" `Quick test_static_shard_equivalent;
        ] );
      ( "baselines and knobs",
        [
          Alcotest.test_case "no D4 violates C1" `Quick test_no_d4_violates;
          Alcotest.test_case "finite FIFO drops" `Quick test_finite_fifo_drops;
          Alcotest.test_case "adaptive FIFOs lossless" `Quick test_adaptive_fifo_no_drops;
          Alcotest.test_case "ECN marking" `Quick test_ecn_marking;
          Alcotest.test_case "latencies" `Quick test_latencies_positive;
          Alcotest.test_case "stateless priority off" `Quick
            test_stateless_priority_off_still_equivalent;
          Alcotest.test_case "starvation guard" `Quick test_starvation_guard_drops_stateless;
          Alcotest.test_case "flow reordering without dummy stage" `Quick
            test_flow_reordering_without_dummy_stage;
          Alcotest.test_case "flow-order dummy stage" `Quick
            test_flow_order_dummy_stage_fixes_reordering;
          Alcotest.test_case "remap period 0" `Quick test_remap_period_zero_ok;
          Alcotest.test_case "empty trace" `Quick test_empty_trace_rejected;
          Alcotest.test_case "timeline needs the whole trace" `Quick
            test_timeline_needs_whole_trace;
          Alcotest.test_case "figure 3 timelines" `Quick test_figure3_timeline;
        ] );
    ]
