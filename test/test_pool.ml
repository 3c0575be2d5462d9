(* The domain pool must be a drop-in for sequential maps: same order,
   same exceptions, same simulation numbers at any job count. *)

module Pool = Mp5_util.Pool
module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Store = Mp5_banzai.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_map_ordering () =
  with_pool ~jobs:4 (fun p ->
      let n = 1000 in
      let out = Pool.map_array p (fun x -> x * x) (Array.init n Fun.id) in
      Alcotest.(check (array int)) "squares in order" (Array.init n (fun i -> i * i)) out;
      let lst = Pool.map_list p string_of_int [ 5; 3; 9; 1 ] in
      Alcotest.(check (list string)) "list order" [ "5"; "3"; "9"; "1" ] lst;
      let ini = Pool.init p 17 (fun i -> 2 * i) in
      Alcotest.(check (array int)) "init" (Array.init 17 (fun i -> 2 * i)) ini)

let test_jobs_one_inline () =
  (* jobs = 1 must not spawn domains and still satisfy the same API. *)
  with_pool ~jobs:1 (fun p ->
      check_int "size" 1 (Pool.size p);
      let out = Pool.map_array p succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "inline map" [| 2; 3; 4 |] out)

exception Boom of int

let test_exception_propagation () =
  with_pool ~jobs:4 (fun p ->
      (* Several tasks fail; the smallest failing index must win, so the
         caller sees a deterministic error regardless of scheduling. *)
      let raised =
        try
          ignore
            (Pool.map_array p
               (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
               (Array.init 100 Fun.id));
          None
        with Boom x -> Some x
      in
      Alcotest.(check (option int)) "lowest failing index" (Some 3) raised;
      (* The pool survives a failed map. *)
      let out = Pool.map_array p succ [| 10; 20 |] in
      Alcotest.(check (array int)) "pool alive after failure" [| 11; 21 |] out)

let test_map_array_result () =
  with_pool ~jobs:4 (fun p ->
      (* Per-task failure surface: raising tasks come back as [Error]
         without poisoning their neighbours, and every non-raising task
         still completes with its value. *)
      let rs =
        Pool.map_array_result p
          (fun x -> if x mod 7 = 3 then raise (Boom x) else x * 10)
          (Array.init 30 Fun.id)
      in
      check_int "all results present" 30 (Array.length rs);
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              check "ok only at non-raising index" true (i mod 7 <> 3);
              check_int "value" (i * 10) v
          | Error (Boom x, _) ->
              check "error only at raising index" true (i mod 7 = 3);
              check_int "error carries its index" i x
          | Error (exn, _) -> Alcotest.failf "unexpected exception %s" (Printexc.to_string exn))
        rs;
      (* The pool survives and the sequential (jobs-irrelevant) path
         agrees shape-for-shape. *)
      let seq =
        Pool.map_array_result p (fun x -> if x = 0 then raise (Boom 0) else x) [| 0 |]
      in
      check "sequential path also catches" true
        (match seq.(0) with Error (Boom 0, _) -> true | _ -> false))

let test_invalid_jobs () =
  check "jobs=0 rejected" true
    (try
       ignore (Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true)

let test_shutdown_inline () =
  let p = Pool.create ~jobs:3 in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  let out = Pool.map_array p succ [| 1; 2 |] in
  Alcotest.(check (array int)) "post-shutdown maps run inline" [| 2; 3 |] out

let test_quiesce_respawn () =
  (* Quiesce joins the workers but keeps the pool usable: the next map
     respawns them lazily and behaves identically. *)
  with_pool ~jobs:4 (fun p ->
      let a = Pool.map_array p succ [| 1; 2; 3 |] in
      Pool.quiesce p;
      Pool.quiesce p;
      (* idempotent *)
      let b = Pool.map_array p succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "before quiesce" [| 2; 3; 4 |] a;
      Alcotest.(check (array int)) "workers respawn after quiesce" [| 2; 3; 4 |] b)

(* --- simulator determinism under the pool --- *)

let heavy_trace ~seed =
  Mp5_workload.Tracegen.sensitivity
    {
      Mp5_workload.Tracegen.n_packets = 2_000;
      k = 4;
      pkt_bytes = 64;
      n_fields = 2;
      index_fields = [ 0 ];
      reg_size = 512;
      pattern = Mp5_workload.Tracegen.Skewed;
      n_ports = 64;
      seed;
    }

let run_one sw seed =
  let r = Switch.run ~k:4 sw (heavy_trace ~seed) in
  (r.Sim.normalized_throughput, r.Sim.exit_order, r.Sim.delivered, r.Sim.store)

let test_sim_deterministic_repeat () =
  (* The same trace twice through the simulator gives identical results —
     the precondition for comparing sequential and parallel runs at all. *)
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let t1, o1, d1, s1 = run_one sw 42 in
  let t2, o2, d2, s2 = run_one sw 42 in
  check "throughput" true (t1 = t2);
  check "exit order" true (o1 = o2);
  check_int "delivered" d1 d2;
  check "store" true (Store.equal s1 s2)

let test_sim_parallel_matches_sequential () =
  (* The tentpole invariant: pool-parallel experiment runs produce the
     same numbers as the sequential loop, element for element. *)
  let sw = Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let seeds = Array.init 6 (fun i -> 100 + i) in
  let seq = Array.map (run_one sw) seeds in
  with_pool ~jobs:4 (fun p ->
      let par = Pool.map_array p (run_one sw) seeds in
      Array.iteri
        (fun i (t, o, d, s) ->
          let t', o', d', s' = par.(i) in
          check "throughput" true (t = t');
          check "exit order" true (o = o');
          check_int "delivered" d d';
          check "store" true (Store.equal s s'))
        seq)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_inline;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "per-task results" `Quick test_map_array_result;
          Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
          Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_inline;
          Alcotest.test_case "quiesce keeps the pool usable" `Quick test_quiesce_respawn;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same trace, same result" `Quick test_sim_deterministic_repeat;
          Alcotest.test_case "parallel = sequential" `Quick
            test_sim_parallel_matches_sequential;
        ] );
    ]
