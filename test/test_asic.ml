(* Tests for the ASIC cost model against the published Table 1. *)

module Model = Mp5_asic.Model
module Table1 = Mp5_asic.Table1

let check = Alcotest.(check bool)

(* Table 1 of the paper, total mm2 per (k, s). *)
let paper =
  [
    ((2, 4), 0.21); ((2, 8), 0.42); ((2, 12), 0.63); ((2, 16), 0.81);
    ((4, 4), 0.84); ((4, 8), 1.68); ((4, 12), 2.52); ((4, 16), 3.36);
    ((8, 4), 3.2); ((8, 8), 6.4); ((8, 12), 9.6); ((8, 16), 12.8);
  ]

let test_area_matches_table1 () =
  List.iter
    (fun ((k, s), expected) ->
      let a = Model.area (Model.paper_config ~k ~stages:s) in
      let rel = abs_float (a.Model.total_mm2 -. expected) /. expected in
      if rel > 0.07 then
        Alcotest.failf "k=%d s=%d: model %.3f vs paper %.2f (%.1f%% off)" k s
          a.Model.total_mm2 expected (100. *. rel))
    paper

let test_area_linear_in_stages () =
  let a4 = (Model.area (Model.paper_config ~k:4 ~stages:4)).Model.total_mm2 in
  let a16 = (Model.area (Model.paper_config ~k:4 ~stages:16)).Model.total_mm2 in
  check "4x stages = 4x area" true (abs_float ((a16 /. a4) -. 4.0) < 1e-6)

let test_area_superlinear_in_pipelines () =
  let a2 = (Model.area (Model.paper_config ~k:2 ~stages:8)).Model.total_mm2 in
  let a4 = (Model.area (Model.paper_config ~k:4 ~stages:8)).Model.total_mm2 in
  let a8 = (Model.area (Model.paper_config ~k:8 ~stages:8)).Model.total_mm2 in
  check "2->4 roughly quadruples" true (a4 /. a2 > 3.5 && a4 /. a2 < 4.5);
  check "4->8 roughly quadruples" true (a8 /. a4 > 3.4 && a8 /. a4 < 4.5)

let test_crossbar_dominates () =
  let a = Model.area (Model.paper_config ~k:8 ~stages:16) in
  check "crossbar is the biggest term" true
    (a.Model.crossbar_mm2 > a.Model.steering_mm2 && a.Model.crossbar_mm2 > a.Model.fifo_mm2);
  check "total is the sum" true
    (abs_float (a.Model.total_mm2 -. (a.Model.crossbar_mm2 +. a.Model.steering_mm2 +. a.Model.fifo_mm2))
    < 1e-9)

let test_clock_meets_1ghz_through_k8 () =
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          check "meets 1GHz" true (Model.clock_ghz (Model.paper_config ~k ~stages:s) >= 1.0))
        Table1.ss)
    Table1.ks

let test_clock_degrades_at_scale () =
  check "k=16 still ok" true (Model.clock_ghz (Model.paper_config ~k:16 ~stages:16) >= 1.0);
  check "k=32 below 1GHz (scalability limit, 3.5.3)" false
    (Model.clock_ghz (Model.paper_config ~k:32 ~stages:16) >= 1.0);
  let f8 = Model.clock_ghz (Model.paper_config ~k:8 ~stages:16) in
  let f16 = Model.clock_ghz (Model.paper_config ~k:16 ~stages:16) in
  check "monotone degradation" true (f16 < f8)

let test_sram_overhead () =
  let s = Model.sram ~stateful_stages:10 ~entries_per_stage:1000 in
  Alcotest.(check int) "30 bits per index" 30 s.Model.bits_per_index;
  Alcotest.(check int) "total bits" 300_000 s.Model.total_bits;
  check "about 35KB (paper)" true (s.Model.total_kb > 33.0 && s.Model.total_kb < 40.0)

let test_switch_fraction () =
  let a = Model.area (Model.paper_config ~k:4 ~stages:16) in
  let lo, hi = Model.switch_fraction a in
  (* paper: "only adds 0.5-1% overhead" for k=4, s=16 *)
  check "0.5-1.2%" true (lo > 0.004 && hi < 0.013);
  let a8 = Model.area (Model.paper_config ~k:8 ~stages:16) in
  let lo8, hi8 = Model.switch_fraction a8 in
  check "2-4.5% at k=8" true (lo8 > 0.015 && hi8 < 0.045)

let test_table1_rows_shape () =
  let rows = Table1.rows () in
  Alcotest.(check int) "three pipeline rows" 3 (List.length rows);
  List.iter
    (fun (_, cells) -> Alcotest.(check int) "four stage columns" 4 (List.length cells))
    rows;
  (* Rendering smoke test. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Table1.print ppf;
  Format.pp_print_flush ppf ();
  check "prints" true (Buffer.length buf > 100)

let () =
  Alcotest.run "asic"
    [
      ( "area",
        [
          Alcotest.test_case "matches Table 1" `Quick test_area_matches_table1;
          Alcotest.test_case "linear in stages" `Quick test_area_linear_in_stages;
          Alcotest.test_case "superlinear in pipelines" `Quick test_area_superlinear_in_pipelines;
          Alcotest.test_case "crossbar dominates" `Quick test_crossbar_dominates;
        ] );
      ( "clock",
        [
          Alcotest.test_case "1GHz through k=8" `Quick test_clock_meets_1ghz_through_k8;
          Alcotest.test_case "degrades at scale" `Quick test_clock_degrades_at_scale;
        ] );
      ( "sram and overhead",
        [
          Alcotest.test_case "SRAM overhead" `Quick test_sram_overhead;
          Alcotest.test_case "switch fraction" `Quick test_switch_fraction;
          Alcotest.test_case "table rendering" `Quick test_table1_rows_shape;
        ] );
    ]
