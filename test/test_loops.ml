(* Idle fast-forward across remap boundaries.

   With nothing in flight the leg loop jumps to the next event, but
   it must still visit every remap boundary (a remap can move cells
   while idle).  On traces with a long arrival gap spanning hundreds of
   boundaries, attaching instruments must change nothing: the results
   are bit-identical, and so are the cycles visited — the same
   checkpoint sequence.  A cycle budget suspends at the same cycle, with
   the same bytes, as the checkpoint taken at that visited count. *)

module Sim = Mp5_core.Sim
module Machine = Mp5_banzai.Machine
module Psource = Mp5_workload.Packet_source
module Progen = Mp5_fuzz.Progen
open Mp5_domino

let limits = Progen.limits

let compiled_seed seed =
  match Compile.compile ~limits (Progen.generate seed) with
  | Ok t -> Mp5_core.Transform.transform ~limits t.Compile.config
  | Error _ -> Alcotest.failf "progen seed %d failed to compile" seed

(* The corpus trace for [seed], its second half delayed 50k cycles
   past the first half's drain: ~500 idle remap boundaries at the
   default period of 100. *)
let gapped_trace seed =
  let base = Progen.trace ~seed ~k:4 ~n:80 in
  let n = Array.length base in
  Array.mapi
    (fun i (i0 : Machine.input) ->
      if i < n / 2 then i0 else { i0 with Machine.time = i0.Machine.time + 50_000 })
    base

(* The gapped run with metrics, an event trace and the invariant
   monitor attached is bit-identical to the bare run — including the
   remapped store layout and the access log. *)
let test_quiescence_gap () =
  List.iter
    (fun seed ->
      let prog = compiled_seed seed in
      let gapped = gapped_trace seed in
      let params = Sim.default_params ~k:4 in
      let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
      let mon = Mp5_fault.Monitor.create () in
      let instrumented =
        Sim.run ~metrics:(Mp5_obs.Metrics.create ~stages ~k:4) ~events:(Mp5_obs.Trace.create ())
          ~monitor:mon params prog gapped
      in
      if not (Mp5_fault.Monitor.ok mon) then
        Alcotest.failf "seed %d: monitor violation across the idle gap:\n%s" seed
          (Mp5_fault.Monitor.summary mon);
      if not (Sim.results_equal (Sim.run params prog gapped) instrumented) then
        Alcotest.failf "seed %d: the instrumented idle-gap run diverges from the bare one" seed)
    [ 1; 2; 3; 5; 8 ]

(* The (cycle, snapshot bytes) sequence of a checkpointed gapped run
   does not change with an event trace and the monitor riding along,
   and a budget of 5j visited cycles suspends with the bytes of the
   j-th checkpoint. *)
let test_checkpoint_sequence () =
  List.iter
    (fun seed ->
      let prog = compiled_seed seed in
      let gapped = gapped_trace seed in
      let params = Sim.default_params ~k:4 in
      let checkpoints ?events ?monitor () =
        let acc = ref [] in
        (match
           Sim.run_source ?events ?monitor ~checkpoint_every:5
             ~on_checkpoint:(fun ~cycle snap -> acc := (cycle, snap) :: !acc)
             params prog (Psource.of_array gapped)
         with
        | Sim.Completed _ -> ()
        | Sim.Suspended _ -> Alcotest.failf "seed %d: suspended without a budget" seed);
        List.rev !acc
      in
      let bare = checkpoints () in
      let instrumented =
        checkpoints ~events:(Mp5_obs.Trace.create ()) ~monitor:(Mp5_fault.Monitor.create ()) ()
      in
      let nb = List.length bare and ni = List.length instrumented in
      if nb <> ni then Alcotest.failf "seed %d: %d bare checkpoints, %d instrumented" seed nb ni;
      List.iteri
        (fun i ((cb, sb), (ci, si)) ->
          if cb <> ci || not (String.equal sb si) then
            Alcotest.failf "seed %d: checkpoint %d differs (bare cycle %d, instrumented %d)"
              seed i cb ci)
        (List.combine bare instrumented);
      if nb < 2 then Alcotest.failf "seed %d: only %d checkpoints" seed nb;
      List.iter
        (fun j ->
          match
            Sim.run_source ~cycle_budget:(5 * j) params prog (Psource.of_array gapped)
          with
          | Sim.Suspended snap ->
              if not (String.equal snap (snd (List.nth bare (j - 1)))) then
                Alcotest.failf "seed %d: budget %d suspends off checkpoint %d" seed (5 * j) j
          | Sim.Completed _ -> Alcotest.failf "seed %d: budget %d did not suspend" seed (5 * j))
        [ 1; nb / 2 ])
    [ 1; 2; 3; 5; 8 ]

let () =
  Alcotest.run "loops"
    [
      ( "quiescence",
        [
          Alcotest.test_case "idle-gap remap skip is bit-identical" `Quick test_quiescence_gap;
          Alcotest.test_case "checkpoint sequence matches suspensions" `Quick
            test_checkpoint_sequence;
        ] );
    ]
