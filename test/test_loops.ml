(* Cycle-loop variant selection and fast-loop-specific behaviour.

   [Sim.select_loop] is the single decision point for which cycle-loop
   variant a leg runs under; the matrix below pins its truth table over
   the parameters, the forcing rows and one [attached] flag.  Which
   attachments set that flag is pinned end to end: every instrument
   that forgets to close the fast gate fails the attachment rows (a
   forced [~loop:Fast] must be rejected loudly, Auto must run the
   generic loop).  The quiescence cases exercise what the differential
   corpus cannot: on a trace with a long arrival gap spanning many
   remap boundaries, both loops must agree bit for bit, not only in
   results but in the cycles they visit — the same checkpoint sequence
   and the same budget suspension snapshot. *)

module Sim = Mp5_core.Sim
module Machine = Mp5_banzai.Machine
module Psource = Mp5_workload.Packet_source
module Progen = Mp5_fuzz.Progen
module Prof = Mp5_obs.Prof
open Mp5_domino

let limits = Progen.limits

let variant =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt (match v with `Fast -> "Fast" | `Generic -> "Generic"))
    ( = )

let select ?(loop = Sim.Auto) ?(attached = false) params =
  Sim.select_loop ~loop ~attached params

let not_eligible =
  Invalid_argument
    "Sim: ~loop:Fast requested, but the run is not fast-eligible (instrumentation \
     attached, finite FIFOs, starvation guard, or Ideal mode)"

let test_selection_matrix () =
  let p = Sim.default_params ~k:4 in
  let check msg want got = Alcotest.check variant msg want got in
  (* Bare runs take the fast path; any attachment closes the gate (which
     attachments count is pinned end to end below). *)
  check "bare" `Fast (select p);
  check "attached" `Generic (select ~attached:true p);
  (* Structural exclusions: bounded rings can drop, the starvation
     guard needs the generic bookkeeping, Ideal's per-cell queues are
     not representable in the unwrapped FIFO matrix. *)
  let finite = { p with Sim.adaptive_fifos = false } in
  check "finite fifos" `Generic (select finite);
  let starve = { p with Sim.starvation_threshold = Some 64 } in
  check "starvation guard" `Generic (select starve);
  let ideal = { p with Sim.mode = Sim.Ideal } in
  check "ideal" `Generic (select ideal);
  (* Forcing the generic loop always honours the request. *)
  check "forced generic" `Generic (select ~loop:Sim.Generic p);
  check "forced generic + attached" `Generic (select ~loop:Sim.Generic ~attached:true p);
  (* Forcing the fast loop on an eligible run honours the request;
     forcing it on an ineligible one is a loud contract violation. *)
  check "forced fast" `Fast (select ~loop:Sim.Fast p);
  List.iter
    (fun (name, f) -> Alcotest.check_raises name not_eligible (fun () -> ignore (f ())))
    [
      ("forced fast + attached", fun () -> select ~loop:Sim.Fast ~attached:true p);
      ("forced fast + finite fifos", fun () -> select ~loop:Sim.Fast finite);
      ("forced fast + starvation", fun () -> select ~loop:Sim.Fast starve);
      ("forced fast + ideal", fun () -> select ~loop:Sim.Fast ideal);
    ]

let compiled_seed seed =
  match Compile.compile ~limits (Progen.generate seed) with
  | Ok t -> Mp5_core.Transform.transform ~limits t.Compile.config
  | Error _ -> Alcotest.failf "progen seed %d failed to compile" seed

(* Every attachment closes the fast gate end to end: a forced fast run
   raises, and under Auto the run takes the generic loop.  The witness
   is a sampled profiler riding along — it keeps the fast gate open on
   its own, and only the generic loop records per-phase exec spans.
   The full profiler is its own witness. *)
let test_attachments_close_gate () =
  let prog = compiled_seed 11 in
  let k = 4 in
  let trace = Progen.trace ~seed:11 ~k ~n:40 in
  let params = Sim.default_params ~k in
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let plan = Result.get_ok (Mp5_fault.Fault.parse "seed 1; xbar-drop @1000000..1000001 p=0.5") in
  let run ~loop ~prof ?metrics ?events ?fault ?monitor ?observer () =
    Sim.run ~loop ~prof ?metrics ?events ?fault ?monitor ?observer params prog trace
  in
  List.iter
    (fun (name, mode, go) ->
      Alcotest.check_raises ("forced fast + " ^ name) not_eligible (fun () ->
          ignore (go Sim.Fast (Prof.create ~mode ())));
      let pf = Prof.create ~mode () in
      ignore (go Sim.Auto pf);
      if Prof.count pf Prof.Exec = 0 then Alcotest.failf "%s: Auto kept the fast loop" name)
    [
      ( "metrics",
        Prof.Sampled,
        fun loop prof -> run ~loop ~prof ~metrics:(Mp5_obs.Metrics.create ~stages ~k) () );
      ( "events",
        Prof.Sampled,
        fun loop prof -> run ~loop ~prof ~events:(Mp5_obs.Trace.create ()) () );
      ("fault plan", Prof.Sampled, fun loop prof -> run ~loop ~prof ~fault:plan ());
      ( "monitor",
        Prof.Sampled,
        fun loop prof -> run ~loop ~prof ~monitor:(Mp5_fault.Monitor.create ()) () );
      ("observer", Prof.Sampled, fun loop prof -> run ~loop ~prof ~observer:ignore ());
      ("full prof", Prof.Full, fun loop prof -> run ~loop ~prof ());
    ];
  (* The witness itself: a sampled profiler alone is admitted under a
     forced fast loop, whose fused sweep records no exec spans (its
     results are held to the bare run by the differential corpus). *)
  let ps = Prof.create () in
  ignore (run ~loop:Sim.Fast ~prof:ps ());
  Alcotest.(check int) "sampled prof: no exec spans" 0 (Prof.count ps Prof.Exec)

(* Idle fast-forward: a long arrival gap with everything drained
   crosses hundreds of remap boundaries, and both loops share [drive]'s
   jump, which visits every one (a remap can move cells while idle).
   The results — including the remapped store layout and the access
   log — must be bit-identical. *)
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

(* The loops differ only in the fused sweep, so they visit the same
   cycles: on the gapped traces above, a checkpointed run emits the same
   (cycle, snapshot bytes) sequence under either, and a budget that
   expires mid-run suspends both at the same cycle with the same
   bytes. *)
let test_checkpoint_sequence () =
  List.iter
    (fun seed ->
      let prog = compiled_seed seed in
      let base = Progen.trace ~seed ~k:4 ~n:80 in
      let n = Array.length base in
      let gapped =
        Array.mapi
          (fun i (i0 : Machine.input) ->
            if i < n / 2 then i0 else { i0 with Machine.time = i0.Machine.time + 50_000 })
          base
      in
      let params = Sim.default_params ~k:4 in
      let checkpoints loop =
        let acc = ref [] in
        (match
           Sim.run_source ~loop ~checkpoint_every:5
             ~on_checkpoint:(fun ~cycle snap -> acc := (cycle, snap) :: !acc)
             params prog (Psource.of_array gapped)
         with
        | Sim.Completed _ -> ()
        | Sim.Suspended _ -> Alcotest.failf "seed %d: suspended without a budget" seed);
        List.rev !acc
      in
      let fast = checkpoints Sim.Fast and generic = checkpoints Sim.Generic in
      let nf = List.length fast and ng = List.length generic in
      if nf <> ng then Alcotest.failf "seed %d: %d fast checkpoints, %d generic" seed nf ng;
      List.iteri
        (fun i ((cf, sf), (cg, sg)) ->
          if cf <> cg || not (String.equal sf sg) then
            Alcotest.failf "seed %d: checkpoint %d differs (fast cycle %d, generic cycle %d)"
              seed i cf cg)
        (List.combine fast generic);
      let suspend loop =
        match
          Sim.run_source ~loop ~cycle_budget:(5 * (ng / 2) + 3) params prog
            (Psource.of_array gapped)
        with
        | Sim.Suspended snap -> snap
        | Sim.Completed _ -> Alcotest.failf "seed %d: budget did not suspend the run" seed
      in
      if not (String.equal (suspend Sim.Fast) (suspend Sim.Generic)) then
        Alcotest.failf "seed %d: budget suspension snapshots differ" seed)
    [ 1; 2; 3; 5; 8 ]

let () =
  Alcotest.run "loops"
    [
      ( "selection",
        [
          Alcotest.test_case "variant matrix" `Quick test_selection_matrix;
          Alcotest.test_case "forced fast rejected end-to-end" `Quick
            test_attachments_close_gate;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "idle-gap remap skip is bit-identical" `Quick test_quiescence_gap;
          Alcotest.test_case "checkpoint sequence matches across loops" `Quick
            test_checkpoint_sequence;
        ] );
    ]
