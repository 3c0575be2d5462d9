(* Tests for the index-to-pipeline map and its runtime counters. *)

module Index_map = Mp5_core.Index_map
module Rng = Mp5_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(k = 4) ?(size = 8) ?(sharded = true) ?(pinned_to = 0) ?(init = `Round_robin) () =
  Index_map.create ~k ~reg:0 ~size ~sharded ~pinned_to ~init

let test_round_robin_placement () =
  let m = mk () in
  for cell = 0 to 7 do
    check_int "interleaved" (cell mod 4) (Index_map.pipeline_of m cell)
  done

let test_blocked_placement () =
  let m = mk ~init:`Blocked () in
  Alcotest.(check (list int)) "range partitioned" [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    (List.init 8 (Index_map.pipeline_of m))

let test_random_placement_in_range () =
  let m = mk ~size:100 ~init:(`Random (Rng.create 3)) () in
  for cell = 0 to 99 do
    let p = Index_map.pipeline_of m cell in
    check "in range" true (p >= 0 && p < 4)
  done

let test_pinned () =
  let m = mk ~sharded:false ~pinned_to:2 () in
  for cell = 0 to 7 do
    check_int "all pinned" 2 (Index_map.pipeline_of m cell)
  done;
  check "not sharded" false (Index_map.sharded m);
  Alcotest.check_raises "move pinned" (Invalid_argument "Index_map.move: array is pinned")
    (fun () -> Index_map.move m ~cell:0 ~to_:1)

let test_counters () =
  let m = mk () in
  Index_map.note_access m 3;
  Index_map.note_access m 3;
  Index_map.note_access m 5;
  check_int "count 3" 2 (Index_map.access_count m 3);
  check_int "count 5" 1 (Index_map.access_count m 5);
  Index_map.reset_counts m;
  check_int "reset" 0 (Index_map.access_count m 3)

let test_inflight () =
  let m = mk () in
  Index_map.incr_inflight m 1;
  Index_map.incr_inflight m 1;
  check_int "two in flight" 2 (Index_map.inflight m 1);
  Index_map.decr_inflight m 1;
  check_int "one left" 1 (Index_map.inflight m 1)

let test_per_pipeline_load () =
  let m = mk () in
  (* cells 0..7 round robin over 4 pipelines: cells 0,4 -> p0; 1,5 -> p1... *)
  Index_map.note_access m 0;
  Index_map.note_access m 4;
  Index_map.note_access m 1;
  Alcotest.(check (array int)) "aggregated" [| 2; 1; 0; 0 |] (Index_map.per_pipeline_load m)

let test_move_updates_load () =
  let m = mk () in
  Index_map.note_access m 0;
  Index_map.move m ~cell:0 ~to_:3;
  check_int "moved" 3 (Index_map.pipeline_of m 0);
  Alcotest.(check (array int)) "load follows" [| 0; 0; 0; 1 |] (Index_map.per_pipeline_load m)

let () =
  Alcotest.run "index_map"
    [
      ( "index-map",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_placement;
          Alcotest.test_case "blocked" `Quick test_blocked_placement;
          Alcotest.test_case "random in range" `Quick test_random_placement_in_range;
          Alcotest.test_case "pinned" `Quick test_pinned;
          Alcotest.test_case "access counters" `Quick test_counters;
          Alcotest.test_case "inflight counters" `Quick test_inflight;
          Alcotest.test_case "per-pipeline load" `Quick test_per_pipeline_load;
          Alcotest.test_case "move updates load" `Quick test_move_updates_load;
        ] );
    ]
