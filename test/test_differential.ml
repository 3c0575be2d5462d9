(* Differential fuzzing of the simulator's run configurations.

   For a few hundred random Domino programs (lib/fuzz/progen), the MP5
   simulator runs the same trace instrumented (metrics and event trace
   attached), and every other configuration must agree with it on every
   observable field ([Sim.results_equal]: stores, headers, access
   sequences, exit order, latencies, counters): the bare run,
   metrics-only and events-only runs, sampled and full profiling, an
   empty fault plan with the invariant monitor attached, a streamed
   run, and a run suspended mid-way and resumed.  This is the
   enforcement half of the bit-identical guarantees documented in
   Sim.run.  Bare and instrumented, each array run's digests must also
   equal the ones recomputed from its own per-packet lists.

   The instrumented run is also checked against the independent
   reference interpreter (lib/fuzz/interp), which executes the untyped
   AST directly with C semantics and knows nothing about stages, kernels
   or pipelines: final register state and per-packet output headers must
   match it exactly.  (The stage kernels themselves are held to the
   Banzai AST interpreter at the Kernel boundary, in test_kernel.) *)

module Store = Mp5_banzai.Store
module Sim = Mp5_core.Sim
open Mp5_domino
module Progen = Mp5_fuzz.Progen
module Interp = Mp5_fuzz.Interp

let limits = Progen.limits
let n_programs = 220
let n_packets = 100

let compile_gen seed =
  let src = Progen.generate seed in
  match Compile.compile ~limits src with
  | Ok t -> (src, t)
  | Error e ->
      Alcotest.failf "seed %d: generated program failed to compile:\n%s\n%a" seed src
        Compile.pp_error e

let check_oracle ~seed ~src (r : Sim.result)
    (ref_regs : int array array) (ref_headers : int array array) =
  Array.iteri
    (fun reg arr ->
      Array.iteri
        (fun idx v ->
          let got = Store.get r.Sim.store ~reg ~idx in
          if got <> v then
            Alcotest.failf "seed %d: program:\n%s\nreg %d[%d]: oracle %d, sim %d" seed src reg
              idx v got)
        arr)
    ref_regs;
  List.iter
    (fun (pid, h) ->
      if h <> ref_headers.(pid) then
        Alcotest.failf "seed %d: program:\n%s\npacket %d headers differ from oracle" seed src
          pid)
    r.Sim.headers_out

(* The digests recomputed from a result's per-packet lists: the exit
   digest folds (seq, latency, user headers) in exit order, and each
   touched cell's access sequence, seeded with the packed (reg, cell)
   key, is combined commutatively.  The machine folds the same bytes
   online; [run]'s lists come from separate collectors on the exit and
   access hooks, so agreement ties the two records of one run to each
   other. *)
let reference_digests (r : Sim.result) =
  let ed = Mp5_util.Hashing.start () in
  let feed = Mp5_util.Hashing.feed ed in
  List.iter2
    (fun (seq, headers) (seq', lat) ->
      assert (seq = seq');
      feed seq;
      feed lat;
      Array.iter feed headers)
    r.Sim.headers_out r.Sim.latencies;
  let dg_access =
    Hashtbl.fold
      (fun (reg, cell) seqs acc ->
        let d = Mp5_util.Hashing.start () in
        Mp5_util.Hashing.feed d ((reg lsl 32) lor cell);
        List.iter (Mp5_util.Hashing.feed d) seqs;
        Mp5_util.Hashing.combine acc (Mp5_util.Hashing.value d))
      r.Sim.access_seqs 0
  in
  { Sim.dg_exits = Mp5_util.Hashing.value ed; dg_access }

let check_digests ~seed ~src what (r : Sim.result) =
  if r.Sim.digests <> reference_digests r then
    Alcotest.failf "seed %d: %s: digests disagree with the per-packet lists on:\n%s" seed what
      src

let run_seed seed =
  let src, t = compile_gen seed in
  let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
  let k = 2 + (seed mod 3) in
  let trace = Progen.trace ~seed ~k ~n:n_packets in
  let params = Sim.default_params ~k in
  (* The reference run is instrumented: telemetry is a pure observer,
     so the result must still match the oracle. *)
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let mk = Mp5_obs.Metrics.create ~stages ~k in
  let tk = Mp5_obs.Trace.create () in
  let base = Sim.run ~metrics:mk ~events:tk params prog trace in
  check_digests ~seed ~src "instrumented run" base;
  (* Telemetry is a pure observer, so stripping it may change nothing
     observable. *)
  let bare = Sim.run params prog trace in
  check_digests ~seed ~src "bare run" bare;
  if not (Sim.results_equal base bare) then
    Alcotest.failf "seed %d: bare run diverges on:\n%s" seed src;
  (* Telemetry does not depend on the event trace riding along: a
     metrics-only run emits counter-for-counter the same telemetry. *)
  let mp = Mp5_obs.Metrics.create ~stages ~k in
  let metered = Sim.run ~metrics:mp params prog trace in
  if not (Sim.results_equal base metered) then
    Alcotest.failf "seed %d: metrics-only run diverges on:\n%s" seed src;
  if not (Mp5_obs.Metrics.equal mk mp) then
    Alcotest.failf "seed %d: metrics-only telemetry diverges on:\n%s" seed src;
  (* Nor does the event trace depend on the metrics: an events-only run
     records event-for-event the same trace. *)
  let te = Mp5_obs.Trace.create () in
  let traced = Sim.run ~events:te params prog trace in
  if not (Sim.results_equal base traced) then
    Alcotest.failf "seed %d: events-only run diverges on:\n%s" seed src;
  if Mp5_obs.Trace.to_jsonl tk <> Mp5_obs.Trace.to_jsonl te then
    Alcotest.failf "seed %d: events-only event trace diverges on:\n%s" seed src;
  (* The span profiler is a pure observer on host wall time: in either
     mode it may not perturb a single observable bit. *)
  let prof_sampled = Mp5_obs.Prof.create () in
  let profs = Sim.run ~prof:prof_sampled params prog trace in
  if not (Sim.results_equal base profs) then
    Alcotest.failf "seed %d: sampled profiling changes the run on:\n%s" seed src;
  let prof_full = Mp5_obs.Prof.create ~mode:Mp5_obs.Prof.Full () in
  let proff = Sim.run ~prof:prof_full params prog trace in
  check_digests ~seed ~src "fully profiled run" proff;
  if not (Sim.results_equal base proff) then
    Alcotest.failf "seed %d: full profiling changes the run on:\n%s" seed src;
  (* An empty fault plan plus an attached invariant monitor must be
     invisible: the fault hooks' no-plan path is bit-identical to an
     unfaulted build, and the monitor is a pure observer. *)
  let mon = Mp5_fault.Monitor.create () in
  let faulted = Sim.run ~fault:Mp5_fault.Fault.empty ~monitor:mon params prog trace in
  if not (Sim.results_equal base faulted) then
    Alcotest.failf "seed %d: empty fault plan + monitor changes the result on:\n%s" seed src;
  if not (Mp5_fault.Monitor.ok mon) then
    Alcotest.failf "seed %d: monitor violation on an unfaulted run:\n%s\n%s" seed src
      (Mp5_fault.Monitor.summary mon);
  (match Mp5_obs.Metrics.validate mk with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: telemetry invariant violated: %s\nprogram:\n%s" seed e src);
  (* Streaming parity: the same packets pulled from a source one at a
     time must be bit-identical to the array run — every counter, the
     merged store, and the exit/access digests. *)
  let streamed =
    match Sim.run_source params prog (Mp5_workload.Packet_source.of_array trace) with
    | Sim.Completed s -> s
    | Sim.Suspended _ -> Alcotest.failf "seed %d: streamed run suspended without a budget" seed
  in
  let want = Sim.summary_of_result ~packets:(Array.length trace) base in
  if not (Sim.summary_equal want streamed) then
    Alcotest.failf "seed %d: streamed source diverges from the array run:\n%s" seed src;
  (* On a corpus slice, a leg suspended mid-run must resume onto the
     uninterrupted summary. *)
  if seed mod 23 = 0 then begin
    let resumed =
      match
        Sim.run_source ~cycle_budget:25 params prog (Mp5_workload.Packet_source.of_array trace)
      with
      | Sim.Completed s -> s (* finished inside the budget; nothing to resume *)
      | Sim.Suspended snap -> (
          match Sim.resume ~snapshot:snap prog (Mp5_workload.Packet_source.of_array trace) with
          | Ok (Sim.Completed s) -> s
          | Ok (Sim.Suspended _) ->
              Alcotest.failf "seed %d: resume suspended without a budget" seed
          | Error _ -> Alcotest.failf "seed %d: resume rejected" seed)
    in
    if not (Sim.summary_equal want resumed) then
      Alcotest.failf "seed %d: checkpoint -> resume diverges:\n%s" seed src
  end;
  if base.Sim.dropped = 0 then begin
    (* the oracle has no drop model, so only compare complete deliveries *)
    let ref_regs, ref_headers = Interp.interp t.Compile.env trace in
    check_oracle ~seed ~src base ref_regs ref_headers
  end

let test_corpus () =
  let oracle_checked = ref 0 in
  for seed = 0 to n_programs - 1 do
    run_seed seed;
    incr oracle_checked
  done;
  Alcotest.(check bool) "ran all seeds" true (!oracle_checked = n_programs)

let () =
  Alcotest.run "differential"
    [
      ( "corpus",
        [ Alcotest.test_case "run variants = oracle (220 programs)" `Quick
            test_corpus ] );
    ]
