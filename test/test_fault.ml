(* Tests for the fault-injection subsystem (lib/fault): plan parsing,
   validation and pretty-printing; the runtime invariant monitor; the
   degraded-mode recovery claim (ISSUE acceptance: one pipeline of four
   dies, dynamic sharding recovers to >= 0.95 * (3/4) of the healthy
   rate while a static placement demonstrably does not); and per-kind
   smoke checks for every fault event the plan language can express. *)

module Fault = Mp5_fault.Fault
module Linkplan = Mp5_fault.Linkplan
module Monitor = Mp5_fault.Monitor
module Metrics = Mp5_obs.Metrics
module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Tracegen = Mp5_workload.Tracegen
module Sources = Mp5_apps.Sources
module Machine = Mp5_banzai.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_exn src =
  match Fault.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S does not parse: %s" src e

(* --- plan language --- *)

let all_kinds_src =
  "seed 42\n\
   down @1000 pipe=2\n\
   up @3000 pipe=2\n\
   fifo-loss @700 stage=2 pipe=1\n\
   stall @500..800 stage=1 pipe=0\n\
   xbar-drop @100..2000 p=0.01\n\
   xbar-dup @100..2000 p=0.005\n\
   phantom-delay @500..900 extra=3\n"

(* Link plans: fabric snapshots embed [to_string] and parse it back. *)
let link_src = "link-down @500..900 link=3 # comment\nlink-delay @100 link=0 extra=5; link-down @7 link=1"

let link_parse_exn src =
  match Linkplan.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "link plan %S does not parse: %s" src e

let test_parse_all_kinds () =
  let p = parse_exn all_kinds_src in
  check_int "seed" 42 p.Fault.seed;
  check_int "seven events" 7 (List.length p.Fault.events);
  (* The printed plan re-parses to the same value. *)
  let printed = Format.asprintf "%a" Fault.pp_plan p in
  (match Fault.parse printed with
  | Ok p' -> check "pp round trip" true (p = p')
  | Error e -> Alcotest.failf "printed plan does not re-parse: %s\n%s" e printed);
  let lp = link_parse_exn link_src in
  let printed = Linkplan.to_string lp in
  Alcotest.(check string) "link plan text"
    "link-down @500..900 link=3; link-delay @100 link=0 extra=5; link-down @7 link=1" printed;
  check "link round trip" true (link_parse_exn printed = lp);
  check "empty link plan" true (Linkplan.to_string Linkplan.empty = ""
                                && link_parse_exn "" = Linkplan.empty)

let test_parse_separators () =
  let p = parse_exn "# comment\nseed 7; down @10 pipe=0 # trailing\n\nup @20 pipe=0" in
  check_int "semicolons and comments" 2 (List.length p.Fault.events);
  check "empty plan is empty" true (Fault.is_empty Fault.empty);
  check "this plan is not" true (not (Fault.is_empty p))

(* Both languages read statements, cycle specs and arguments the same
   way, so both report the same positioned messages. *)
let test_parse_errors () =
  let pin parse (src, want) =
    match parse src with
    | Ok _ -> Alcotest.failf "plan %S should not parse" src
    | Error e -> Alcotest.(check string) src want e
  in
  List.iter (pin Fault.parse)
    [
      ("seed 1\ndown @x pipe=0", "line 2: bad cycle spec \"@x\"");
      ("down @10", "line 1: missing argument pipe=");
      ("up @1..2 pipe=0", "line 1: expected a single cycle (@C), got a window");
      ("stall @5..2 stage=0 pipe=0", "line 1: empty window @5..2");
      ("xbar-drop @1..2 p=nope", "line 1: argument p=\"nope\" is not a number");
      ("xbar-drop @1..2 p=2", "line 1: probability p=2 out of [0,1]");
      ("xbar-dup @1..2 p=nan", "line 1: probability p=nan out of [0,1]");
      ("frobnicate @10 pipe=1", "line 1: unknown fault event \"frobnicate\"");
      ("seed x", "line 1: bad seed \"x\"");
    ];
  List.iter (pin Linkplan.parse)
    [
      ("link-down @5..9 link=0; link-down @x link=0", "line 1: bad cycle spec \"@x\"");
      ("link-down @5..9", "line 1: missing argument link=");
      ("link-down @9..5 link=0", "line 1: empty window @9..5");
      ("link-down @-5..9 link=0", "line 1: cycle window must satisfy 0 <= A <= B");
      ("link-down @5 link=-1", "line 1: link id must be >= 0");
      ("link-down @5 link=one", "line 1: argument link=\"one\" is not an integer");
      ("link-delay @5 link=1 extra=0", "line 1: extra= must be positive");
      ("link-down @5 link=1 junk", "line 1: expected key=value, got \"junk\"");
      ("# c\nlink-up @5 link=1", "line 2: unknown link event \"link-up\"");
    ]

(* Totality over mutated text of both languages: byte flips,
   truncations, statements spliced in at ';', and integers swapped for
   huge and negative ones.  Every case parses or fails with a
   ["line N: ..."] message, and what parses prints to text that parses
   back to the same plan (the fault printer's [%g] probabilities are
   held to a fixed point of print-then-parse). *)
let test_parse_mutated () =
  let st = Random.State.make [| 32 |] in
  let statements src =
    String.split_on_char '\n' src |> List.concat_map (String.split_on_char ';')
  in
  let numbers =
    [| "-1"; "-0"; "0"; "65535"; "65536"; "1152921504606846976"; "4611686018427387903";
       "4611686018427387904"; "-4611686018427387904"; "99999999999999999999"; "0x7fffffff";
       "1e400"; "nan" |]
  in
  let mutate pool src =
    let n = String.length src in
    match Random.State.int st 4 with
    | 0 when n > 0 ->
        let b = Bytes.of_string src in
        Bytes.set b (Random.State.int st n) (Char.chr (Random.State.int st 256));
        Bytes.to_string b
    | 1 -> String.sub src 0 (Random.State.int st (n + 1))
    | 2 ->
        let pick l = List.nth l (Random.State.int st (List.length l)) in
        let stmts = statements src in
        let i = Random.State.int st (List.length stmts + 1) in
        String.concat ";"
          (List.filteri (fun j _ -> j < i) stmts
          @ [ pick (statements (pick pool)) ]
          @ List.filteri (fun j _ -> j >= i) stmts)
    | _ ->
        (* Swap the digit run around a random position for a number. *)
        let is_digit c = c >= '0' && c <= '9' in
        let i = if n = 0 then 0 else Random.State.int st n in
        if i >= n || not (is_digit src.[i]) then src
        else begin
          let a = ref i and b = ref i in
          while !a > 0 && is_digit src.[!a - 1] do decr a done;
          while !b < n && is_digit src.[!b] do incr b done;
          String.sub src 0 !a
          ^ numbers.(Random.State.int st (Array.length numbers))
          ^ String.sub src !b (n - !b)
        end
  in
  let positioned e =
    match String.index_opt e ':' with
    | Some i when i > 5 && String.sub e 0 5 = "line " ->
        String.for_all (fun c -> c >= '0' && c <= '9') (String.sub e 5 (i - 5))
    | _ -> false
  in
  let run ~pool ~roundtrip parse =
    for case = 1 to 2000 do
      let src = ref (List.nth pool (case mod List.length pool)) in
      for _ = 0 to Random.State.int st 3 do
        src := mutate pool !src
      done;
      match parse !src with
      | exception exn -> Alcotest.failf "%S raised %s" !src (Printexc.to_string exn)
      | Ok p -> if not (roundtrip p) then Alcotest.failf "%S does not round-trip" !src
      | Error e -> if not (positioned e) then Alcotest.failf "%S: unpositioned %S" !src e
    done
  in
  let fault_text p = Format.asprintf "%a" Fault.pp_plan p in
  run ~pool:[ all_kinds_src; "seed 3; down @0 pipe=0 # x" ] Fault.parse ~roundtrip:(fun p ->
      match Fault.parse (fault_text p) with
      | Ok p' -> fault_text p' = fault_text p
      | Error _ -> false);
  run ~pool:[ link_src; "link-delay @0..4 link=2 extra=1" ] Linkplan.parse ~roundtrip:(fun p ->
      Linkplan.parse (Linkplan.to_string p) = Ok p)

let test_validate_ranges () =
  let bad = parse_exn "seed 1; down @5 pipe=9" in
  (match Fault.validate bad ~k:4 ~stages:16 with
  | Error e -> check "mentions the pipe" true (String.length e > 0)
  | Ok () -> Alcotest.fail "pipe 9 of 4 should not validate");
  check "start rejects it too" true
    (try
       ignore (Fault.start bad ~k:4 ~stages:16);
       false
     with Invalid_argument _ -> true);
  let deep = parse_exn "seed 1; stall @5..9 stage=40 pipe=0" in
  check "stage out of range" true (Fault.validate deep ~k:4 ~stages:16 = Ok () = false)

(* A plan that validates must also resume: validation holds every event
   to the bounds a snapshot's fault section reads back.  Each plan that
   validates runs heavy_hitter for 20 cycles, suspends, and resumes a
   copy of its snapshot (the cross-process path). *)
let test_validated_plan_resumes () =
  let sw = Switch.create_exn Sources.heavy_hitter in
  let k = 4 in
  let trace =
    Tracegen.sensitivity
      {
        Tracegen.n_packets = 400;
        k;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 512;
        pattern = Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
  in
  let source () = Mp5_workload.Packet_source.of_array trace in
  let stages = Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  List.iter
    (fun (src, valid) ->
      let plan = parse_exn src in
      check (src ^ " validates") valid (Fault.validate plan ~k ~stages = Ok ());
      if valid then
        match
          Sim.run_source ~fault:plan ~cycle_budget:20 (Sim.default_params ~k) sw.Switch.prog
            (source ())
        with
        | Sim.Completed _ -> Alcotest.failf "%s: did not suspend" src
        | Sim.Suspended snap -> (
            let snapshot = Bytes.to_string (Bytes.of_string snap) in
            match Sim.resume ~snapshot sw.Switch.prog (source ()) with
            | Ok (Sim.Completed _) -> ()
            | Ok (Sim.Suspended _) -> Alcotest.failf "%s: resume suspended" src
            | Error (Sim.Corrupt m | Sim.Mismatch m) -> Alcotest.failf "%s: resume: %s" src m))
    [
      ("seed 1; phantom-delay @0..100 extra=65535", true);
      ("seed 1; up @1152921504606846976 pipe=1", true);
      ("seed 1; phantom-delay @0..100 extra=70000", false);
      ("seed 1; up @2000000000000000000 pipe=1", false);
      ("seed 1; stall @0..1152921504606846977 stage=1 pipe=0", false);
    ]

(* --- simulation helpers --- *)

let sens_switch ?(reg_size = 512) () =
  Switch.create_exn ~pad_to_stages:16 (Sources.sensitivity_program ~stateful:4 ~reg_size)

let sens_trace ?(n = 1_200) ?(reg = 512) ?(pattern = Tracegen.Uniform) ~seed () =
  Tracegen.sensitivity
    {
      Tracegen.n_packets = n;
      k = 4;
      pkt_bytes = 64;
      n_fields = 6;
      index_fields = [ 0; 1; 2; 3 ];
      reg_size = reg;
      pattern;
      n_ports = 64;
      seed;
    }

let stages_of sw =
  Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages

let run_faulted ?mode ?fault ?monitor sw trace =
  let params =
    match mode with
    | None -> Sim.default_params ~k:4
    | Some mode -> { (Sim.default_params ~k:4) with Sim.mode }
  in
  let m = Metrics.create ~stages:(stages_of sw) ~k:4 in
  let r = Sim.run ?fault ?monitor ~metrics:m params sw.Switch.prog trace in
  (r, m)

(* --- the acceptance claim: degraded-mode recovery --- *)

(* Deliveries whose exit cycle lands in [lo, hi): a packet's exit cycle
   is its arrival time plus its measured cycles in the switch. *)
let delivered_in_window trace (r : Sim.result) ~lo ~hi =
  List.fold_left
    (fun acc (pid, lat) ->
      let exit = trace.(pid).Machine.time + lat in
      if exit >= lo && exit < hi then acc + 1 else acc)
    0 r.Sim.latencies

let test_degraded_recovery () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:3_000 ~seed:31 () in
  let plan = parse_exn "seed 5; down @200 pipe=1" in
  let healthy, _ = run_faulted sw trace in
  let mon = Monitor.create () in
  let mp5, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  (* The monitor is the affinity oracle: zero violations during the
     spill, the evacuation and the entire degraded tail. *)
  check "monitor ran" true (Monitor.checks mon > 0);
  check "zero violations" true (Monitor.ok mon);
  check "fault event applied" true (Metrics.faulted m && m.Metrics.m_fault_events = 1);
  check "cells were evacuated" true (m.Metrics.m_evac_moves > 0);
  (* ISSUE acceptance: post-recovery throughput >= 0.95 * (k-1)/k of the
     no-fault rate.  The down edge is at 200 and the evacuation lands at
     the next remap boundary (period 100), so [450, 700) is comfortably
     after recovery; the 3000-packet 64B trace spans ~750 cycles. *)
  let lo, hi = (450, 700) in
  let h = delivered_in_window trace healthy ~lo ~hi in
  let d = delivered_in_window trace mp5 ~lo ~hi in
  check "healthy window is busy" true (h > 0);
  if float_of_int d < 0.95 *. 0.75 *. float_of_int h then
    Alcotest.failf "post-recovery window delivered %d, bound %.0f (healthy %d)" d
      (0.95 *. 0.75 *. float_of_int h)
      h;
  (* The same plan under static sharding cannot recover: the dead
     pipeline's cells are never evacuated, so a quarter of the stateful
     packets chase a dead pipeline forever. *)
  let static, ms = run_faulted ~mode:Sim.Static_shard ~fault:plan sw trace in
  check "static never evacuates" true (ms.Metrics.m_evac_moves = 0);
  let s = delivered_in_window trace static ~lo ~hi in
  if float_of_int s >= 0.85 *. float_of_int d then
    Alcotest.failf "static sharding recovered too well: window %d vs mp5 %d" s d

let test_down_up_recovers_fully () =
  (* A transient outage: pipeline down for a window, then back.  The run
     completes, the monitor stays green, and the pipe-down cycle counter
     covers (roughly) the outage window. *)
  let sw = sens_switch () in
  let trace = sens_trace ~n:3_000 ~seed:32 () in
  let plan = parse_exn "seed 6; down @300 pipe=2; up @600 pipe=2" in
  let mon = Monitor.create () in
  let r, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check_int "both edges applied" 2 m.Metrics.m_fault_events;
  check "down cycles counted" true (m.Metrics.m_pipe_down_cycles >= 250);
  check "packets delivered" true (r.Sim.delivered > 0)

let test_last_pipeline_guard () =
  (* A plan may never take down the last live pipeline. *)
  let sw = sens_switch () in
  let trace = sens_trace ~n:400 ~seed:33 () in
  let plan =
    parse_exn "seed 1; down @10 pipe=0; down @10 pipe=1; down @10 pipe=2; down @10 pipe=3"
  in
  check "killing every pipeline fails fast" true
    (try
       ignore (run_faulted ~fault:plan sw trace);
       false
     with Failure _ -> true)

(* --- per-kind smoke checks --- *)

let test_xbar_drop () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:1_200 ~seed:34 () in
  let mon = Monitor.create () in
  let plan = parse_exn "seed 11; xbar-drop @0..100000 p=0.3" in
  let r, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check "transfers were dropped" true (m.Metrics.m_drop_injected > 0);
  check "drops surface in the result" true (r.Sim.dropped > 0)

(* Every transfer dropped: nothing exits, so there is no exit span and
   both entry points report 0 cycles, not [0 - first_arrival + 1]. *)
let test_xbar_drop_all () =
  let sw = Switch.create_exn Sources.heavy_hitter in
  let trace =
    Tracegen.sensitivity
      {
        Tracegen.n_packets = 50;
        k = 4;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 512;
        pattern = Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
    |> Array.map (fun (i : Machine.input) -> { i with Machine.time = i.Machine.time + 1000 })
  in
  let plan = parse_exn "xbar-drop @0..100000 p=1.0" in
  let params = Sim.default_params ~k:4 in
  let r = Sim.run ~fault:plan params sw.Switch.prog trace in
  check_int "nothing delivered" 0 r.Sim.delivered;
  check_int "every packet dropped" 50 r.Sim.dropped;
  check_int "run: no exit span" 0 r.Sim.cycles;
  match
    Sim.run_source ~fault:plan params sw.Switch.prog (Mp5_workload.Packet_source.of_array trace)
  with
  | Sim.Completed s ->
      check_int "run_source: every packet dropped" 50 s.Sim.s_dropped;
      check_int "run_source: no exit span" 0 s.Sim.s_cycles
  | Sim.Suspended _ -> Alcotest.fail "run_source suspended without a budget"

let test_xbar_dup () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:1_200 ~seed:35 () in
  let mon = Monitor.create () in
  let plan = parse_exn "seed 12; xbar-dup @0..100000 p=0.5" in
  let r, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check "ghost packets spawned" true (m.Metrics.m_dup_packets > 0);
  check "ghosts are delivered" true (r.Sim.delivered > Array.length trace - r.Sim.dropped)

(* Crossbar duplication allocates its ghost packets inside the apply
   phase.  On 32 stages at one arrival per cycle, a dup-heavy plan
   fills the empty slots with ghosts until a ghost, not an arrival,
   grows the packet slab past 64 packets — mid-phase — and ECN marking
   (threshold 0) writes a slab column after that growth.  The bare run,
   the run with metrics and an event trace, and a run suspended and
   resumed every few dozen cycles must all agree, whether each resume
   decodes a copy of the string into a new machine (whose slab is rebuilt
   at its live size, so it grows at other cycles) or recycles the
   suspended machine, which keeps its largest slab. *)
let test_xbar_dup_slab_growth () =
  let sw =
    Switch.create_exn ~pad_to_stages:32 (Sources.sensitivity_program ~stateful:4 ~reg_size:512)
  in
  let trace =
    Array.mapi
      (fun i (x : Machine.input) -> { x with Machine.time = i })
      (sens_trace ~n:1_200 ~seed:40 ())
  in
  let plan = parse_exn "seed 16; xbar-dup @0..100000 p=0.9" in
  let params = { (Sim.default_params ~k:4) with Sim.ecn_threshold = Some 0 } in
  let prog = sw.Switch.prog in
  let bare = Sim.run ~fault:plan params prog trace in
  let m = Metrics.create ~stages:(stages_of sw) ~k:4 in
  let instrumented =
    Sim.run ~fault:plan ~metrics:m ~events:(Mp5_obs.Trace.create ()) params prog trace
  in
  check "ghost packets spawned" true (m.Metrics.m_dup_packets > 0);
  check "packets ECN-marked" true (bare.Sim.marked > 0);
  check "instrumented run = bare run" true (Sim.results_equal bare instrumented);
  let source () = Mp5_workload.Packet_source.of_array trace in
  let rec drain ~copy = function
    | Sim.Completed s -> s
    | Sim.Suspended snap -> (
        let snapshot = if copy then Bytes.to_string (Bytes.of_string snap) else snap in
        match Sim.resume ~cycle_budget:97 ~snapshot prog (source ()) with
        | Ok o -> drain ~copy o
        | Error _ -> Alcotest.fail "fresh snapshot rejected")
  in
  let chunked ~copy =
    Sim.summary_equal
      (Sim.summary_of_result ~packets:(Array.length trace) bare)
      (drain ~copy (Sim.run_source ~fault:plan ~cycle_budget:41 params prog (source ())))
  in
  check "chunked run (new machines) = bare run" true (chunked ~copy:true);
  check "chunked run (recycled) = bare run" true (chunked ~copy:false)

let test_stall () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:1_200 ~seed:36 () in
  let mon = Monitor.create () in
  let plan = parse_exn "seed 13; stall @100..600 stage=1 pipe=0" in
  let _, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check "stall cycles attributed" true (m.Metrics.m_fault_stall_cycles > 0)

let test_fifo_loss () =
  let sw = sens_switch ~reg_size:64 () in
  (* Skewed traffic keeps the hot stage's FIFOs non-empty, so the losses
     find a ready head to take. *)
  let trace = sens_trace ~n:1_500 ~reg:64 ~pattern:Tracegen.Skewed ~seed:37 () in
  let mon = Monitor.create () in
  let plan =
    parse_exn
      "seed 14; fifo-loss @150 stage=1 pipe=0; fifo-loss @170 stage=2 pipe=1; fifo-loss \
       @190 stage=3 pipe=2; fifo-loss @210 stage=4 pipe=3; fifo-loss @230 stage=1 \
       pipe=1; fifo-loss @250 stage=2 pipe=2; fifo-loss @270 stage=3 pipe=3; fifo-loss \
       @290 stage=4 pipe=0"
  in
  let _, m = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check_int "all losses applied" 8 m.Metrics.m_fault_events;
  check "at least one entry lost" true (m.Metrics.m_drop_injected > 0)

let test_phantom_delay () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:1_200 ~seed:38 () in
  let mon = Monitor.create () in
  let plan = parse_exn "seed 15; phantom-delay @0..100000 extra=3" in
  let r, _ = run_faulted ~fault:plan ~monitor:mon sw trace in
  check "monitor green" true (Monitor.ok mon);
  check "run completes" true (r.Sim.delivered + r.Sim.dropped > 0)

(* --- no plan, no trace: bit-identity --- *)

let test_empty_plan_bit_identical () =
  let sw = sens_switch () in
  let trace = sens_trace ~n:1_000 ~seed:39 () in
  let params = Sim.default_params ~k:4 in
  let plain = Sim.run params sw.Switch.prog trace in
  let mon = Monitor.create () in
  let faulted = Sim.run ~fault:Fault.empty ~monitor:mon params sw.Switch.prog trace in
  check "empty plan + monitor is invisible" true (Sim.results_equal plain faulted);
  check "monitor green" true (Monitor.ok mon)

(* --- monitor bookkeeping --- *)

let test_monitor_counts () =
  let mon = Monitor.create ~epoch:32 ~fail_fast:false () in
  check "due at start" true (Monitor.due mon ~now:0);
  Monitor.mark mon ~now:0;
  check "not due immediately after" true (not (Monitor.due mon ~now:1));
  check "due an epoch later" true (Monitor.due mon ~now:32);
  Monitor.report mon ~cycle:40 "synthetic violation";
  check "not ok" true (not (Monitor.ok mon));
  check_int "one violation" 1 (Monitor.violations mon);
  check "diagnostic kept" true
    (match Monitor.last_diagnostic mon with
    | Some d -> String.length d > 0
    | None -> false);
  check "summary mentions it" true (String.length (Monitor.summary mon) > 0)

let test_monitor_fail_fast () =
  let mon = Monitor.create () in
  check "fail-fast raises" true
    (try
       Monitor.report mon ~cycle:1 "boom";
       false
     with Monitor.Violation _ -> true)

let () =
  Alcotest.run "fault"
    [
      ( "plan language",
        [
          Alcotest.test_case "all kinds + pp round trip" `Quick test_parse_all_kinds;
          Alcotest.test_case "separators and comments" `Quick test_parse_separators;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "mutated plans parse or fail positioned" `Quick test_parse_mutated;
          Alcotest.test_case "validation ranges" `Quick test_validate_ranges;
          Alcotest.test_case "a plan that validates resumes" `Quick test_validated_plan_resumes;
        ] );
      ( "degraded mode",
        [
          Alcotest.test_case "pipeline loss: recovery bound" `Quick test_degraded_recovery;
          Alcotest.test_case "down then up" `Quick test_down_up_recovers_fully;
          Alcotest.test_case "last-pipeline guard" `Quick test_last_pipeline_guard;
        ] );
      ( "fault kinds",
        [
          Alcotest.test_case "crossbar drop" `Quick test_xbar_drop;
          Alcotest.test_case "crossbar drops everything" `Quick test_xbar_drop_all;
          Alcotest.test_case "crossbar duplication" `Quick test_xbar_dup;
          Alcotest.test_case "duplication growing the slab" `Quick test_xbar_dup_slab_growth;
          Alcotest.test_case "stage stall" `Quick test_stall;
          Alcotest.test_case "fifo slot loss" `Quick test_fifo_loss;
          Alcotest.test_case "phantom delay" `Quick test_phantom_delay;
        ] );
      ( "no-fault path",
        [ Alcotest.test_case "empty plan is bit-identical" `Quick test_empty_plan_bit_identical ] );
      ( "monitor",
        [
          Alcotest.test_case "counting monitor" `Quick test_monitor_counts;
          Alcotest.test_case "fail-fast monitor" `Quick test_monitor_fail_fast;
        ] );
    ]
