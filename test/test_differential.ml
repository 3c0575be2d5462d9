(* Differential fuzzing of the two simulator execution engines.

   For a few hundred random Domino programs (lib/fuzz/progen), the MP5
   simulator is run twice on the same trace — once with the compiled
   closure kernels (the default) and once with the AST interpreter
   (~compiled:false) — and the results must agree on every observable
   field ([Sim.results_equal]: stores, headers, access sequences, exit
   order, latencies, counters).  This is the enforcement half of the
   bit-identical guarantee documented in Sim.run.

   Each seed is additionally replayed under the bare fast cycle loop
   (forced with [~loop:Fast], over both kernels) and must be
   bit-identical to the instrumented generic run — array and streamed
   runs, and resumes that switch loop variants mid-run.

   Both execution engines are additionally checked against the independent
   reference interpreter (lib/fuzz/interp), which executes the untyped
   AST directly with C semantics and knows nothing about stages, kernels
   or pipelines: final register state and per-packet output headers must
   match it exactly. *)

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

let check_oracle ~seed ~src ~engine (r : Sim.result)
    (ref_regs : int array array) (ref_headers : int array array) =
  Array.iteri
    (fun reg arr ->
      Array.iteri
        (fun idx v ->
          let got = Store.get r.Sim.store ~reg ~idx in
          if got <> v then
            Alcotest.failf "seed %d (%s engine): program:\n%s\nreg %d[%d]: oracle %d, sim %d"
              seed engine src reg idx v got)
        arr)
    ref_regs;
  List.iter
    (fun (pid, h) ->
      if h <> ref_headers.(pid) then
        Alcotest.failf "seed %d (%s engine): program:\n%s\npacket %d headers differ from oracle"
          seed engine src pid)
    r.Sim.headers_out

let run_seed seed =
  let src, t = compile_gen seed in
  let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
  let k = 2 + (seed mod 3) in
  let trace = Progen.trace ~seed ~k ~n:n_packets in
  let params = Sim.default_params ~k in
  (* Both engines run instrumented: telemetry is a pure observer, so the
     results must still match the oracle, and the two engines must emit
     counter-for-counter and event-for-event identical telemetry. *)
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let mk = Mp5_obs.Metrics.create ~stages ~k in
  let mi = Mp5_obs.Metrics.create ~stages ~k in
  let tk = Mp5_obs.Trace.create () in
  let ti = Mp5_obs.Trace.create () in
  let kernel = Sim.run ~compiled:true ~metrics:mk ~events:tk params prog trace in
  let interp = Sim.run ~compiled:false ~metrics:mi ~events:ti params prog trace in
  if not (Sim.results_equal kernel interp) then
    Alcotest.failf "seed %d: kernel and interpreter engines diverge on:\n%s" seed src;
  (* Telemetry does not depend on the event trace riding along: a
     metrics-only run emits counter-for-counter the same telemetry. *)
  let mp = Mp5_obs.Metrics.create ~stages ~k in
  let metered = Sim.run ~compiled:true ~metrics:mp params prog trace in
  if not (Sim.results_equal kernel metered) then
    Alcotest.failf "seed %d: metrics-only run diverges on:\n%s" seed src;
  if not (Mp5_obs.Metrics.equal mk mp) then
    Alcotest.failf "seed %d: metrics-only telemetry diverges on:\n%s" seed src;
  (* The bare fast loop (forced, over both kernels) must be
     bit-identical to the instrumented generic runs above: telemetry is
     a pure observer, so stripping it — and fusing the cycle phases —
     may change nothing observable. *)
  let fast = Sim.run ~loop:Sim.Fast ~compiled:true params prog trace in
  if not (Sim.results_equal kernel fast) then
    Alcotest.failf "seed %d: fast loop diverges on:\n%s" seed src;
  let fasti = Sim.run ~loop:Sim.Fast ~compiled:false params prog trace in
  if not (Sim.results_equal kernel fasti) then
    Alcotest.failf "seed %d: fast loop over the interpreter diverges on:\n%s" seed src;
  (* The span profiler is a pure observer on host wall time: sampled
     profiling keeps the fast loop and full profiling routes to the
     generic loop, and neither may perturb a single observable bit. *)
  let prof_sampled = Mp5_obs.Prof.create () in
  let profs =
    Sim.run ~loop:Sim.Fast ~prof:prof_sampled ~compiled:true params prog trace
  in
  if not (Sim.results_equal kernel profs) then
    Alcotest.failf "seed %d: sampled profiling changes the fast run on:\n%s" seed src;
  let prof_full = Mp5_obs.Prof.create ~mode:Mp5_obs.Prof.Full () in
  let proff = Sim.run ~prof:prof_full ~compiled:true params prog trace in
  if not (Sim.results_equal kernel proff) then
    Alcotest.failf "seed %d: full profiling changes the generic run on:\n%s" seed src;
  (* An empty fault plan plus an attached invariant monitor must be
     invisible: the fault hooks' no-plan path is bit-identical to an
     unfaulted build, and the monitor is a pure observer. *)
  let mon = Mp5_fault.Monitor.create () in
  let faulted =
    Sim.run ~compiled:true ~fault:Mp5_fault.Fault.empty ~monitor:mon params prog trace
  in
  if not (Sim.results_equal kernel faulted) then
    Alcotest.failf "seed %d: empty fault plan + monitor changes the result on:\n%s" seed src;
  if not (Mp5_fault.Monitor.ok mon) then
    Alcotest.failf "seed %d: monitor violation on an unfaulted run:\n%s\n%s" seed src
      (Mp5_fault.Monitor.summary mon);
  (* A non-empty plan draws its drops from the plan's own RNG, never
     from kernel state: both kernels must land on the same faulted
     result. *)
  if seed mod 7 = 0 then begin
    let plan =
      {
        Mp5_fault.Fault.seed = (7 * seed) + 1;
        events = [ Mp5_fault.Fault.window ~from_:5 ~until_:60 (Mp5_fault.Fault.Xbar_drop 0.25) ];
      }
    in
    let fk = Sim.run ~compiled:true ~fault:plan params prog trace in
    let fi = Sim.run ~compiled:false ~fault:plan params prog trace in
    if not (Sim.results_equal fk fi) then
      Alcotest.failf "seed %d: faulted kernel and interpreter runs diverge on:\n%s" seed src
  end;
  (match Mp5_obs.Metrics.validate mk with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: telemetry invariant violated: %s\nprogram:\n%s" seed e src);
  if not (Mp5_obs.Metrics.equal mk mi) then
    Alcotest.failf "seed %d: kernel and interpreter telemetry diverge on:\n%s" seed src;
  if Mp5_obs.Trace.to_jsonl tk <> Mp5_obs.Trace.to_jsonl ti then
    Alcotest.failf "seed %d: kernel and interpreter event traces diverge on:\n%s" seed src;
  (* Streaming parity: the same packets pulled from a source one at a
     time must be bit-identical to the array run on both engines — every
     counter, the merged store, and the exit/access digests
     ([Sim.digests_of_result] condenses the array run's per-packet lists
     into the digests the streaming path maintains online). *)
  let stream ?loop ~compiled () =
    match
      Sim.run_source ?loop ~compiled params prog
        (Mp5_workload.Packet_source.of_array trace)
    with
    | Sim.Completed s -> s
    | Sim.Suspended _ -> Alcotest.failf "seed %d: streamed run suspended without a budget" seed
  in
  let want = Sim.summary_of_result ~packets:(Array.length trace) kernel in
  if not (Sim.summary_equal want (stream ~compiled:true ())) then
    Alcotest.failf "seed %d: streamed source diverges from the array run (kernel):\n%s" seed
      src;
  if not (Sim.summary_equal want (stream ~compiled:false ())) then
    Alcotest.failf "seed %d: streamed source diverges from the array run (interp):\n%s" seed
      src;
  (* Streamed fast loop: exercises chunked source admission (no
     checkpointing armed, so the prefetch buffer is live) and the
     streaming exit/access digests under the fused sweep. *)
  if not (Sim.summary_equal want (stream ~loop:Sim.Fast ~compiled:true ())) then
    Alcotest.failf "seed %d: streamed fast loop diverges from the array run:\n%s" seed src;
  (* Snapshots record no loop-variant choice: on a corpus slice, a leg
     suspended under one cycle-loop variant must resume under the other
     and land on the uninterrupted summary. *)
  if seed mod 23 = 0 then begin
    let cross l1 l2 =
      match
        Sim.run_source ~loop:l1 ~cycle_budget:25 params prog
          (Mp5_workload.Packet_source.of_array trace)
      with
      | Sim.Completed s -> s (* finished inside the budget; nothing to cross *)
      | Sim.Suspended snap -> (
          match
            Sim.resume ~loop:l2 ~snapshot:snap prog (Mp5_workload.Packet_source.of_array trace)
          with
          | Ok (Sim.Completed s) -> s
          | Ok (Sim.Suspended _) ->
              Alcotest.failf "seed %d: resume suspended without a budget" seed
          | Error _ -> Alcotest.failf "seed %d: cross-variant resume rejected" seed)
    in
    if not (Sim.summary_equal want (cross Sim.Fast Sim.Generic)) then
      Alcotest.failf "seed %d: fast checkpoint -> generic resume diverges:\n%s" seed src;
    if not (Sim.summary_equal want (cross Sim.Generic Sim.Fast)) then
      Alcotest.failf "seed %d: generic checkpoint -> fast resume diverges:\n%s" seed src
  end;
  if kernel.Sim.dropped = 0 then begin
    (* the oracle has no drop model, so only compare complete deliveries *)
    let ref_regs, ref_headers = Interp.interp t.Compile.env trace in
    check_oracle ~seed ~src ~engine:"kernel" kernel ref_regs ref_headers;
    check_oracle ~seed ~src ~engine:"interp" interp ref_regs ref_headers
  end

let test_engines_agree () =
  let oracle_checked = ref 0 in
  for seed = 0 to n_programs - 1 do
    run_seed seed;
    incr oracle_checked
  done;
  Alcotest.(check bool) "ran all seeds" true (!oracle_checked = n_programs)

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [ Alcotest.test_case "kernel = interpreter = parallel = oracle (220 programs)" `Quick
            test_engines_agree ] );
    ]
