(* Bechamel micro-benchmarks: one Test.make per table/figure harness
   (at a tiny scale so each run is a few milliseconds) plus the
   simulator's hot paths. *)

open Bechamel
open Toolkit

let tiny = { Experiments.n_packets = 1500; runs = 1 }

let compile_test =
  Test.make ~name:"compile:flowlet"
    (Staged.stage (fun () -> Mp5_core.Switch.create_exn Mp5_apps.Sources.flowlet))

let golden_test =
  let sw = Mp5_core.Switch.create_exn Mp5_apps.Sources.sequencer in
  let trace =
    Mp5_workload.Tracegen.sensitivity
      {
        Mp5_workload.Tracegen.n_packets = 2000;
        k = 4;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 8;
        pattern = Mp5_workload.Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
  in
  Test.make ~name:"golden:sequencer-2k" (Staged.stage (fun () -> Mp5_core.Switch.golden sw trace))

let sim_test =
  let sw = Mp5_core.Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let trace =
    Mp5_workload.Tracegen.sensitivity
      {
        Mp5_workload.Tracegen.n_packets = 2000;
        k = 4;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 512;
        pattern = Mp5_workload.Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
  in
  Test.make ~name:"sim:heavy-hitter-2k"
    (Staged.stage (fun () -> Mp5_core.Switch.run ~k:4 sw trace))

(* Same workload through the AST-interpreter escape hatch: the pair
   quantifies what the kernel compilation buys on the hot path. *)
let sim_interp_test =
  let sw = Mp5_core.Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let trace =
    Mp5_workload.Tracegen.sensitivity
      {
        Mp5_workload.Tracegen.n_packets = 2000;
        k = 4;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 512;
        pattern = Mp5_workload.Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
  in
  Test.make ~name:"sim:heavy-hitter-2k:interp"
    (Staged.stage (fun () -> Mp5_core.Switch.run ~compiled:false ~k:4 sw trace))

let fifo_test =
  Test.make ~name:"fifo:push-insert-pop"
    (Staged.stage (fun () ->
         let f = Mp5_arch.Fifo.create ~k:4 ~capacity:16 ~adaptive:false in
         for i = 0 to 31 do
           ignore (Mp5_arch.Fifo.push_phantom f ~ring:(i land 3) ~ts:i ~key:i)
         done;
         for i = 0 to 31 do
           ignore (Mp5_arch.Fifo.insert_data f ~key:i i)
         done;
         while Mp5_arch.Fifo.take f >= 0 do
           ()
         done))

let table_tests =
  [
    Test.make ~name:"table1" (Staged.stage (fun () -> Mp5_asic.Table1.rows ()));
    Test.make ~name:"fig7a" (Staged.stage (fun () -> Experiments.fig7a tiny));
    Test.make ~name:"fig7d" (Staged.stage (fun () -> Experiments.fig7d tiny));
    Test.make ~name:"d2" (Staged.stage (fun () -> Experiments.d2 tiny));
    Test.make ~name:"d4" (Staged.stage (fun () -> Experiments.d4 tiny));
    Test.make ~name:"fig8:sequencer" (Staged.stage (fun () -> Experiments.fig8_one tiny "sequencer"));
  ]

let all_tests =
  Test.make_grouped ~name:"mp5"
    ([ compile_test; golden_test; sim_test; sim_interp_test; fifo_test ] @ table_tests)

let run () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.Bechamel micro-benchmarks (monotonic clock):@.";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  (* Print as before, and return the estimates so main.ml records them
     in BENCH_results.json. *)
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          Format.printf "  %-28s %12.0f ns/run@." name est;
          Some (name, est)
      | _ ->
          Format.printf "  %-28s (no estimate)@." name;
          None)
    (List.sort compare rows)
