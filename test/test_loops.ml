(* Cycle-loop variant selection and fast-loop-specific behaviour.

   [Sim.select_loop] is the single decision point for which cycle-loop
   variant a leg runs under; the matrix below pins its whole truth
   table, so a future instrumentation hook that forgets to close the
   fast gate fails here rather than as a silent divergence.  The
   behavioural cases exercise what the differential corpus cannot: a
   forced [~loop:Fast] on an ineligible run must be rejected loudly,
   and the fast loop's whole-machine quiescence jump (which skips idle
   remap boundaries outright) must stay bit-identical to the generic
   loop on a trace with a long arrival gap spanning many boundaries. *)

module Sim = Mp5_core.Sim
module Machine = Mp5_banzai.Machine
module Progen = Mp5_fuzz.Progen
open Mp5_domino

let limits = Progen.limits

let variant =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt (match v with `Fast -> "Fast" | `Generic -> "Generic"))
    ( = )

let select ?(loop = Sim.Auto) ?(metrics = false) ?(events = false) ?(fault = false)
    ?(monitor = false) ?(observer = false) ?prof params =
  Sim.select_loop ~loop ~metrics ~events ~fault ~monitor ~observer ~prof params

let test_selection_matrix () =
  let p = Sim.default_params ~k:4 in
  let check msg want got = Alcotest.check variant msg want got in
  (* Bare runs take the fast path. *)
  check "bare" `Fast (select p);
  (* Every instrumentation hook closes the fast gate on its own. *)
  check "metrics" `Generic (select ~metrics:true p);
  check "monitor" `Generic (select ~monitor:true p);
  check "events" `Generic (select ~events:true p);
  check "fault" `Generic (select ~fault:true p);
  check "observer" `Generic (select ~observer:true p);
  (* Structural exclusions: bounded rings can drop, the starvation
     guard needs the generic bookkeeping, Ideal's per-cell queues are
     not representable in the unwrapped FIFO matrix. *)
  let finite = { p with Sim.adaptive_fifos = false } in
  check "finite fifos" `Generic (select finite);
  let starve = { p with Sim.starvation_threshold = Some 64 } in
  check "starvation guard" `Generic (select starve);
  let ideal = { p with Sim.mode = Sim.Ideal } in
  check "ideal" `Generic (select ideal);
  (* Profiling: a sampled profiler hooks only at cycle edges the fast
     loop already exposes, so it keeps the fast gate open; a full
     profiler needs the generic loop's phase structure, so Auto routes
     to Generic. *)
  check "sampled prof" `Fast (select ~prof:Mp5_obs.Prof.Sampled p);
  check "full prof" `Generic (select ~prof:Mp5_obs.Prof.Full p);
  check "sampled prof + metrics" `Generic (select ~metrics:true ~prof:Mp5_obs.Prof.Sampled p);
  (* Forcing the generic loop always honours the request. *)
  check "forced generic" `Generic (select ~loop:Sim.Generic p);
  (* Forcing the fast loop on an eligible run honours the request;
     forcing it on an ineligible one is a loud contract violation. *)
  check "forced fast" `Fast (select ~loop:Sim.Fast p);
  check "forced fast + sampled prof" `Fast (select ~loop:Sim.Fast ~prof:Mp5_obs.Prof.Sampled p);
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument
           "Sim: ~loop:Fast requested, but the run is not fast-eligible (instrumentation \
            attached, finite FIFOs, starvation guard, or Ideal mode)")
        (fun () -> ignore (f ())))
    [
      ("forced fast + metrics", fun () -> select ~loop:Sim.Fast ~metrics:true p);
      ("forced fast + events", fun () -> select ~loop:Sim.Fast ~events:true p);
      ("forced fast + fault", fun () -> select ~loop:Sim.Fast ~fault:true p);
      ("forced fast + monitor", fun () -> select ~loop:Sim.Fast ~monitor:true p);
      ("forced fast + observer", fun () -> select ~loop:Sim.Fast ~observer:true p);
      ( "forced fast + full prof",
        fun () -> select ~loop:Sim.Fast ~prof:Mp5_obs.Prof.Full p );
      ("forced fast + finite fifos", fun () -> select ~loop:Sim.Fast finite);
      ("forced fast + starvation", fun () -> select ~loop:Sim.Fast starve);
      ("forced fast + ideal", fun () -> select ~loop:Sim.Fast ideal);
    ]

(* A forced fast run must also be rejected end-to-end, not only at the
   selector. *)
let test_forced_fast_rejected () =
  let src = Progen.generate 11 in
  let t =
    match Compile.compile ~limits src with
    | Ok t -> t
    | Error _ -> Alcotest.fail "progen seed 11 failed to compile"
  in
  let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
  let k = 4 in
  let trace = Progen.trace ~seed:11 ~k ~n:40 in
  let params = Sim.default_params ~k in
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let m = Mp5_obs.Metrics.create ~stages ~k in
  (match Sim.run ~loop:Sim.Fast ~metrics:m params prog trace with
  | _ -> Alcotest.fail "forced fast run with metrics attached was not rejected"
  | exception Invalid_argument _ -> ());
  let pf = Mp5_obs.Prof.create ~mode:Mp5_obs.Prof.Full () in
  (match Sim.run ~loop:Sim.Fast ~prof:pf params prog trace with
  | _ -> Alcotest.fail "forced fast run with a full profiler was not rejected"
  | exception Invalid_argument _ -> ());
  (* ... while a sampled profiler must be admitted under a forced fast
     loop and still produce the bit-identical result. *)
  let ps = Mp5_obs.Prof.create () in
  let profiled = Sim.run ~loop:Sim.Fast ~prof:ps params prog trace in
  let bare = Sim.run ~loop:Sim.Fast params prog trace in
  if not (Sim.results_equal profiled bare) then
    Alcotest.fail "sampled profiling changed a forced-fast result"

(* Quiescence fast-forward: a long arrival gap with everything drained
   crosses hundreds of remap boundaries.  The generic loop visits each
   one; the fast loop jumps straight to the next arrival once the
   access counters are provably clean ([fs_dirty] off).  The results —
   including the remapped store layout and the access log — must be
   bit-identical, or the skip is unsound. *)
let test_quiescence_gap () =
  let run_gap seed =
    let src = Progen.generate seed in
    match Compile.compile ~limits src with
    | Error _ -> () (* progen corpus seeds all compile; stay silent here *)
    | Ok t ->
        let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
        let k = 4 in
        let base = Progen.trace ~seed ~k ~n:80 in
        let n = Array.length base in
        (* Second half of the trace arrives 50k cycles after the first
           half drains: ~500 idle remap boundaries at the default
           period of 100. *)
        let gapped =
          Array.mapi
            (fun i (i0 : Machine.input) ->
              if i < n / 2 then i0 else { i0 with Machine.time = i0.Machine.time + 50_000 })
            base
        in
        let params = Sim.default_params ~k in
        let fast = Sim.run ~loop:Sim.Fast params prog gapped in
        let generic = Sim.run ~loop:Sim.Generic params prog gapped in
        if not (Sim.results_equal fast generic) then
          Alcotest.failf "seed %d: quiescence jump diverges from the generic loop on:\n%s"
            seed src
  in
  List.iter run_gap [ 1; 2; 3; 5; 8 ]

let () =
  Alcotest.run "loops"
    [
      ( "selection",
        [
          Alcotest.test_case "variant matrix" `Quick test_selection_matrix;
          Alcotest.test_case "forced fast rejected end-to-end" `Quick
            test_forced_fast_rejected;
        ] );
      ( "quiescence",
        [ Alcotest.test_case "idle-gap remap skip is bit-identical" `Quick test_quiescence_gap ]
      );
    ]
