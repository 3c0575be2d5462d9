(* Application-level tests: each program compiles, behaves sensibly on
   crafted traces, and the trace adapters fit the header layouts. *)

module Switch = Mp5_core.Switch
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Tracegen = Mp5_workload.Tracegen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_all_compile () =
  List.iter
    (fun (name, src) ->
      match Switch.create src with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s does not compile: %s" name m)
    Mp5_apps.Sources.all_named

(* Every program at the smallest stage budget it compiles at: MP5 must
   match the golden switch with no C1 violation, and one stage fewer is
   a compile error (a serialization error where the program has a stage
   to split), never an approximation. *)
let test_smallest_stage_budget () =
  let create max_stages src =
    Switch.create ~limits:{ Mp5_banzai.Capability.default with max_stages } src
  in
  let pkts = Tracegen.flows ~seed:5 ~n_packets:400 ~k:4 ~concurrency:64 () in
  List.iter
    (fun (name, src) ->
      let rec smallest m =
        if m > Mp5_banzai.Capability.default.max_stages then
          Alcotest.failf "%s compiles at no stage budget" name
        else match create m src with Ok sw -> (m, sw) | Error _ -> smallest (m + 1)
      in
      let m, sw = smallest 1 in
      let _, rep = Switch.verify ~k:4 sw (Mp5_apps.Traces.trace_for name pkts) in
      check (Printf.sprintf "%s equivalent at max_stages %d" name m) true
        (Mp5_core.Equiv.equivalent rep);
      check_int (name ^ " C1 violations") 0 rep.Mp5_core.Equiv.c1_violations;
      let split =
        Array.length sw.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages
        > Array.length (Switch.config sw).Mp5_banzai.Config.stages + 1
      in
      let phase = if split then "serialization error" else "code generation error" in
      match create (m - 1) src with
      | Ok _ -> Alcotest.failf "%s compiled below its smallest budget" name
      | Error e ->
          check (Printf.sprintf "%s below budget: %s" name e) true
            (String.starts_with ~prefix:phase e))
    Mp5_apps.Sources.all_named

let test_adapters_match_layouts () =
  let pkts = Tracegen.flows ~seed:1 ~n_packets:50 ~k:2 ~concurrency:8 () in
  List.iter
    (fun (name, src) ->
      let sw = Switch.create_exn src in
      let n_fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
      Array.iter
        (fun p ->
          check_int (name ^ " header arity") n_fields (Array.length (Mp5_apps.Traces.fill name p)))
        pkts)
    Mp5_apps.Sources.all_named

let test_sequencer_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.sequencer in
  let trace =
    Array.init 9 (fun i -> { Machine.time = i; port = 0; headers = [| i mod 3; 0 |] })
  in
  let g = Switch.golden sw trace in
  (* Each group of 3 packets gets 1,2,3. *)
  Array.iteri
    (fun i h -> check_int "per-group sequence" ((i / 3) + 1) h.(1))
    g.Machine.headers_out;
  for grp = 0 to 2 do
    check_int "final counter" 3 (Store.get g.Machine.store ~reg:0 ~idx:grp)
  done

let test_flowlet_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.flowlet in
  (* Same 5-tuple: second packet inside the gap keeps the saved hop;
     a third far later picks the new hop. *)
  let mk time new_hop = { Machine.time; port = 0; headers = [| 1; 2; 3; 4; time; new_hop; 0 |] } in
  (* First arrival is far from the zero-initialised last_time, so it
     starts a flowlet. *)
  let trace = [| mk 100 7; mk 105 9; mk 300 11 |] in
  let g = Switch.golden sw trace in
  check_int "first packet starts flowlet" 7 g.Machine.headers_out.(0).(6);
  check_int "second keeps hop" 7 g.Machine.headers_out.(1).(6);
  check_int "new flowlet picks new hop" 11 g.Machine.headers_out.(2).(6)

let test_wfq_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.wfq in
  (* flow, len, virtual_time, rank *)
  let mk time flow len vt = { Machine.time; port = 0; headers = [| flow; len; vt; 0 |] } in
  let trace = [| mk 0 1 10 0; mk 1 1 10 0; mk 2 1 10 50 |] in
  let g = Switch.golden sw trace in
  check_int "first rank = virtual time" 0 g.Machine.headers_out.(0).(3);
  check_int "second rank = previous finish" 10 g.Machine.headers_out.(1).(3);
  check_int "idle flow restarts at virtual time" 50 g.Machine.headers_out.(2).(3)

let test_conga_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.conga in
  (* dst_leaf, path, util, best_path.  best_util starts at 0 so only a
     negative-util... initial best_util = 0 means only better (smaller)
     utils replace; use the table to check the util write. *)
  let mk time leaf path util = { Machine.time; port = 0; headers = [| leaf; path; util; 0 |] } in
  let trace = [| mk 0 5 1 (-3); mk 1 5 2 10 |] in
  let g = Switch.golden sw trace in
  check_int "path util recorded" (-3) (Store.get g.Machine.store ~reg:0 ~idx:((5 * 4) + 1));
  check_int "best path tracks minimum" 1 g.Machine.headers_out.(1).(3)

let test_firewall_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.firewall in
  let mk time syn = { Machine.time; port = 0; headers = [| 9; 9; syn; 0 |] } in
  let trace = [| mk 0 0; mk 1 1; mk 2 0 |] in
  let g = Switch.golden sw trace in
  check_int "blocked before syn" 0 g.Machine.headers_out.(0).(3);
  check_int "syn establishes" 1 g.Machine.headers_out.(1).(3);
  check_int "allowed after" 1 g.Machine.headers_out.(2).(3)

let test_ddos_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.ddos_unresolvable_pred in
  let mk time syn = { Machine.time; port = 0; headers = [| 7; syn; 0 |] } in
  let trace = Array.init 102 (fun i -> mk i (if i < 101 then 1 else 0)) in
  let g = Switch.golden sw trace in
  check_int "not dropped early" 0 g.Machine.headers_out.(50).(2);
  check_int "dropped after threshold" 1 g.Machine.headers_out.(101).(2);
  check_int "blocklist set" 1 (Store.get g.Machine.store ~reg:1 ~idx:7)

let test_pointer_chase_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.pointer_chase_unresolvable_idx in
  let trace = Array.init 3 (fun i -> { Machine.time = i; port = 0; headers = [| 0; 0 |] }) in
  let g = Switch.golden sw trace in
  (* indirection[0] = 0 so data[0] counts all three. *)
  check_int "counted through indirection" 3 (Store.get g.Machine.store ~reg:1 ~idx:0);
  check_int "out carries count" 3 g.Machine.headers_out.(2).(1)

let test_rcp_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.rcp in
  let mk time rtt size = { Machine.time; port = 0; headers = [| rtt; size |] } in
  let trace = [| mk 0 10 100; mk 1 50 200; mk 2 20 300 |] in
  let g = Switch.golden sw trace in
  check_int "input bytes counts all" 600 (Store.get g.Machine.store ~reg:0 ~idx:0);
  check_int "rtt sum skips large rtt" 30 (Store.get g.Machine.store ~reg:1 ~idx:0);
  check_int "num pkts skips large rtt" 2 (Store.get g.Machine.store ~reg:2 ~idx:0)

let test_netflow_sampling () =
  let sw = Switch.create_exn Mp5_apps.Sources.netflow_sampled in
  let trace =
    Array.init 128 (fun i -> { Machine.time = i; port = 0; headers = [| 7; 0 |] })
  in
  let g = Switch.golden sw trace in
  check_int "two samples in 128 packets" 2 (Store.get g.Machine.store ~reg:1 ~idx:7);
  (* exactly packets 63 and 127 are marked *)
  Array.iteri
    (fun i h ->
      check_int (Printf.sprintf "mark %d" i) (if (i + 1) mod 64 = 0 then 1 else 0) h.(1))
    g.Machine.headers_out;
  (* The sampling predicate reads the counter: unresolvable. *)
  check "G_unresolved exercised" true
    (Array.exists
       (fun (a : Mp5_core.Transform.access) -> a.Mp5_core.Transform.guard = Mp5_core.Transform.G_unresolved)
       sw.Switch.prog.Mp5_core.Transform.accesses)

let test_codel_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.codel in
  let mk time delay = { Machine.time; port = 0; headers = [| delay; 0 |] } in
  let trace = [| mk 0 50; mk 1 3; mk 2 70 |] in
  let g = Switch.golden sw trace in
  check_int "first sees high min" 1 g.Machine.headers_out.(0).(1);
  check_int "second lowers min below target" 0 g.Machine.headers_out.(1).(1);
  check_int "min sticks" 0 g.Machine.headers_out.(2).(1);
  check_int "final min" 3 (Store.get g.Machine.store ~reg:0 ~idx:0)

let test_hull_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.hull in
  let mk time size = { Machine.time; port = 0; headers = [| size; 0 |] } in
  (* Small packet drains the phantom queue to zero (clamped); a burst of
     large packets fills it past the marking threshold. *)
  let trace = Array.append [| mk 0 100 |] (Array.init 9 (fun i -> mk (i + 1) 1400)) in
  let g = Switch.golden sw trace in
  check_int "clamped at zero" 0 g.Machine.headers_out.(0).(1);
  check_int "marks under burst" 1 g.Machine.headers_out.(9).(1);
  check "phantom length positive" true (Store.get g.Machine.store ~reg:0 ~idx:0 > 3000)

let test_netcache_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.netcache in
  let trace =
    Array.init 130 (fun i -> { Machine.time = i; port = 0; headers = [| 42; 0 |] })
  in
  let g = Switch.golden sw trace in
  check_int "cold below threshold" 0 g.Machine.headers_out.(100).(1);
  check_int "hot above threshold" 1 g.Machine.headers_out.(129).(1)

let test_cms_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.count_min_sketch in
  let trace =
    Array.init 10 (fun i ->
        { Machine.time = i; port = 0; headers = [| (if i < 7 then 5 else 9); 0 |] })
  in
  let g = Switch.golden sw trace in
  (* With only two keys there are no collisions w.h.p., so the estimate is
     exact and never below the true count. *)
  check_int "estimate of heavy key" 7 g.Machine.headers_out.(6).(1);
  check "estimate never undercounts" true
    (g.Machine.headers_out.(9).(1) >= 3)

let test_dns_guard_behaviour () =
  let sw = Switch.create_exn Mp5_apps.Sources.dns_guard in
  let mk time is_resp = { Machine.time; port = 0; headers = [| 9; is_resp; 0 |] } in
  (* One query then a flood of responses. *)
  let trace = Array.append [| mk 0 0 |] (Array.init 15 (fun i -> mk (i + 1) 1)) in
  let g = Switch.golden sw trace in
  check_int "benign at start" 0 g.Machine.headers_out.(1).(2);
  check_int "suspicious after flood" 1 g.Machine.headers_out.(15).(2)

let test_sensitivity_program_generator () =
  List.iter
    (fun stateful ->
      let src = Mp5_apps.Sources.sensitivity_program ~stateful ~reg_size:16 in
      match Switch.create src with
      | Error m -> Alcotest.failf "stateful=%d: %s" stateful m
      | Ok sw ->
          check_int
            (Printf.sprintf "%d stateful accesses" stateful)
            stateful
            (Array.length sw.Switch.prog.Mp5_core.Transform.accesses))
    [ 0; 1; 2; 4; 10 ];
  let guarded = Mp5_apps.Sources.sensitivity_program_guarded ~stateful:3 ~reg_size:8 in
  check "guarded compiles" true (Result.is_ok (Switch.create guarded))

let test_figure3_program_table1_semantics () =
  (* The exact golden run from the paper's Table I ordering. *)
  let sw = Switch.create_exn Mp5_apps.Sources.figure3 in
  let mk h1 h2 h3 mux time port = { Machine.time; port; headers = [| h1; h2; h3; 0; mux |] } in
  let trace = Machine.sort_trace [| mk 1 1 2 1 0 2; mk 1 1 2 1 0 1; mk 1 1 2 1 1 1; mk 1 1 2 1 1 2; mk 1 3 2 0 2 1 |] in
  let g = Switch.golden sw trace in
  check_int "reg3[2] = 0*4*4*4*4 + 7" 7 (Store.get g.Machine.store ~reg:2 ~idx:2)

let () =
  Alcotest.run "apps"
    [
      ( "apps",
        [
          Alcotest.test_case "all compile" `Quick test_all_compile;
          Alcotest.test_case "adapters match layouts" `Quick test_adapters_match_layouts;
          Alcotest.test_case "sequencer" `Quick test_sequencer_behaviour;
          Alcotest.test_case "flowlet" `Quick test_flowlet_behaviour;
          Alcotest.test_case "wfq" `Quick test_wfq_behaviour;
          Alcotest.test_case "conga" `Quick test_conga_behaviour;
          Alcotest.test_case "firewall" `Quick test_firewall_behaviour;
          Alcotest.test_case "ddos" `Quick test_ddos_behaviour;
          Alcotest.test_case "pointer chase" `Quick test_pointer_chase_behaviour;
          Alcotest.test_case "rcp" `Quick test_rcp_behaviour;
          Alcotest.test_case "sampled netflow" `Quick test_netflow_sampling;
          Alcotest.test_case "codel" `Quick test_codel_behaviour;
          Alcotest.test_case "hull" `Quick test_hull_behaviour;
          Alcotest.test_case "netcache" `Quick test_netcache_behaviour;
          Alcotest.test_case "count-min sketch" `Quick test_cms_behaviour;
          Alcotest.test_case "dns guard" `Quick test_dns_guard_behaviour;
          Alcotest.test_case "sensitivity generator" `Quick test_sensitivity_program_generator;
          Alcotest.test_case "figure 3 exact" `Quick test_figure3_program_table1_semantics;
          Alcotest.test_case "smallest stage budget" `Quick test_smallest_stage_budget;
        ] );
    ]
