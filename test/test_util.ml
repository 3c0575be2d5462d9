(* Unit tests for Mp5_util: deterministic RNG, ring buffer, distributions,
   statistics, hashing. *)

module Rng = Mp5_util.Rng
module Dist = Mp5_util.Dist
module Stats = Mp5_util.Stats
module Hashing = Mp5_util.Hashing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_uniformity () =
  let rng = Rng.create 99 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 8 in
      check "within 5% of uniform" true (abs (c - expected) < expected / 20))
    buckets

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    check "float in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Drawing from the child must not change the parent's future stream
     relative to a parent that also split. *)
  let parent' = Rng.create 5 in
  let _child' = Rng.split parent' in
  for _ = 1 to 16 do
    ignore (Rng.int64 child)
  done;
  Alcotest.(check int64) "parent unaffected by child draws" (Rng.int64 parent) (Rng.int64 parent')

let test_rng_invalid_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_pick () =
  let rng = Rng.create 12 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    check "pick from array" true (Array.mem (Rng.pick rng a) a)
  done

(* --- Ring buffer ---

   A one-ring FIFO ([k = 1]) is a single ring buffer: data pushes are
   its push, [take] its pop, and [insert_data] on a queued phantom its
   in-place [set] by stable address: the position the phantom's push
   returned, with its key. *)

module Fifo = Mp5_arch.Fifo

type rb = { f : Fifo.t; mutable next_key : int }

let rb_create ?(adaptive = false) capacity =
  { f = Fifo.create ~k:1 ~capacity ~adaptive; next_key = 0 }

let fresh_key rb =
  let key = rb.next_key in
  rb.next_key <- key + 1;
  key

let rb_push rb x =
  let key = fresh_key rb in
  Fifo.push_data rb.f ~ring:0 ~ts:key ~key x = `Ok

(* A placeholder whose value is set later; returns its address, the
   (key, position) pair. *)
let rb_push_slot rb =
  let key = fresh_key rb in
  let pos = Fifo.push_phantom rb.f ~ring:0 ~ts:key ~key in
  check "slot pushed" true (pos >= 0);
  (key, pos)

let rb_set rb (key, pos) v = Fifo.insert_data rb.f ~pos ~key v

let rb_pop rb =
  let code = Fifo.take rb.f in
  if code >= 0 then Some code else None

let rb_contents rb =
  let acc = ref [] in
  Fifo.iter_data rb.f (fun ~key:_ v -> acc := v :: !acc);
  List.rev !acc

let test_rb_fifo_order () =
  let rb = rb_create 4 in
  List.iter (fun x -> check "push ok" true (rb_push rb x)) [ 1; 2; 3 ];
  check_int "pop 1" 1 (Option.get (rb_pop rb));
  check_int "pop 2" 2 (Option.get (rb_pop rb));
  check "push after pops" true (rb_push rb 4);
  check_int "pop 3" 3 (Option.get (rb_pop rb));
  check_int "pop 4" 4 (Option.get (rb_pop rb));
  check "empty" true (rb_pop rb = None)

let test_rb_full_drop () =
  let rb = rb_create 2 in
  check "push 1" true (rb_push rb 1);
  check "push 2" true (rb_push rb 2);
  check "push 3 dropped" false (rb_push rb 3);
  check_int "length" 2 (Fifo.length rb.f)

let test_rb_wraparound () =
  let rb = rb_create 3 in
  for round = 0 to 9 do
    check "push" true (rb_push rb round);
    check_int "pop" round (Option.get (rb_pop rb))
  done

let test_rb_get_set () =
  let rb = rb_create 4 in
  let a = rb_push_slot rb in
  let b = rb_push_slot rb in
  let c = rb_push_slot rb in
  check "set 0" true (rb_set rb a 10 = `Ok);
  check "set 2" true (rb_set rb c 30 = `Ok);
  Alcotest.(check (list int)) "positions 0 and 2 set" [ 10; 30 ] (rb_contents rb);
  check "set 1" true (rb_set rb b 99 = `Ok);
  Alcotest.(check (list int)) "set visible in place" [ 10; 99; 30 ] (rb_contents rb);
  (* Position 3 is the next push's: nothing is queued there yet. *)
  check "set out of range misses" true (rb_set rb (3, 3 lsl 6) 0 = `No_phantom)

let test_rb_stable_addresses () =
  let rb = rb_create 4 in
  ignore (rb_push rb 10);
  let addr = rb_push_slot rb in
  ignore (rb_pop rb);
  (* [addr] still addresses the second element after the head moved. *)
  check "set after pop" true (rb_set rb addr 25 = `Ok);
  check_int "set visible" 25 (Option.get (rb_pop rb));
  check "stale address" true (rb_set rb addr 26 = `No_phantom)

let test_rb_grow () =
  let rb = rb_create ~adaptive:true 2 in
  ignore (rb_push rb 1);
  let addr = rb_push_slot rb in
  check "push beyond capacity grows" true (rb_push rb 3);
  check_int "capacity doubled" 4 (Fifo.ring_capacity rb.f ~ring:0);
  check_int "contents preserved" 3 (Fifo.length rb.f);
  check "stable address survives grow" true (rb_set rb addr 2 = `Ok);
  check_int "order preserved" 1 (Option.get (rb_pop rb));
  check_int "order preserved 2" 2 (Option.get (rb_pop rb));
  check_int "order preserved 3" 3 (Option.get (rb_pop rb))

let test_rb_grow_wrapped () =
  (* Storage for 2 x 3 slots rounds up to 8: fill it with the head
     moved off slot 0, so the next push grows storage while wrapped. *)
  let rb = rb_create ~adaptive:true 3 in
  for x = 1 to 8 do
    ignore (rb_push rb x)
  done;
  for _ = 1 to 3 do
    ignore (rb_pop rb)
  done;
  for x = 9 to 12 do
    ignore (rb_push rb x)
  done;
  Alcotest.(check (list int))
    "wrapped contents preserved" [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ] (rb_contents rb)

let test_rb_iter () =
  let rb = rb_create 4 in
  List.iter (fun x -> ignore (rb_push rb x)) [ 5; 6; 7 ];
  Alcotest.(check (list int)) "iter head to tail" [ 5; 6; 7 ] (rb_contents rb)

(* --- Dist --- *)

let test_dist_uniform_support () =
  let rng = Rng.create 21 in
  let d = Dist.uniform_discrete 10 in
  for _ = 1 to 1000 do
    let v = Dist.sample rng d in
    check "in support" true (v >= 0 && v < 10)
  done

let test_dist_weights_respected () =
  let rng = Rng.create 22 in
  let d = Dist.discrete [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Dist.sample rng d in
    counts.(v) <- counts.(v) + 1
  done;
  check_int "zero-weight value never drawn" 0 counts.(1);
  let frac0 = float_of_int counts.(0) /. float_of_int n in
  check "1:3 ratio approximately" true (abs_float (frac0 -. 0.25) < 0.02)

let test_dist_skewed_mass () =
  let rng = Rng.create 23 in
  let n = 100 in
  let d = Dist.skewed ~n ~hot_fraction:0.3 ~hot_mass:0.95 in
  let hot = ref 0 in
  let total = 50_000 in
  for _ = 1 to total do
    if Dist.sample rng d < 30 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int total in
  check "95% of mass on hot 30%" true (abs_float (frac -. 0.95) < 0.01)

let test_dist_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.discrete: empty weights") (fun () ->
      ignore (Dist.discrete [||]));
  Alcotest.check_raises "zero sum" (Invalid_argument "Dist.discrete: weights sum to zero")
    (fun () -> ignore (Dist.discrete [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Dist.discrete: negative weight")
    (fun () -> ignore (Dist.discrete [| 1.0; -1.0 |]))

let test_empirical_interpolation () =
  let e = Dist.empirical [| (10.0, 0.5); (20.0, 1.0) |] in
  let rng = Rng.create 25 in
  for _ = 1 to 1000 do
    let v = Dist.sample_empirical rng e in
    check "within knot range" true (v >= 10.0 -. 1e-9 && v <= 20.0 +. 1e-9)
  done;
  (* first knot is a point mass at 10 (mass 0.5); the second piece ramps
     10..20: mean = 0.5*10 + 0.5*15 = 12.5 *)
  check "mean" true (abs_float (Dist.mean_empirical e -. 12.5) < 1e-9)

let test_empirical_validation () =
  Alcotest.check_raises "cdf must end at 1"
    (Invalid_argument "Dist.empirical: last cdf must be 1.0") (fun () ->
      ignore (Dist.empirical [| (5.0, 0.9) |]))

let test_bimodal () =
  let rng = Rng.create 26 in
  let b = Dist.bimodal ~lo:200 ~hi:1400 ~lo_prob:0.5 in
  for _ = 1 to 100 do
    let v = Dist.sample_bimodal rng b in
    check "one of the modes" true (v = 200 || v = 1400)
  done;
  check "mean" true (abs_float (Dist.mean_bimodal b -. 800.0) < 1e-9)

(* --- Stats --- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check "mean" true (abs_float (Stats.mean xs -. 2.5) < 1e-9);
  let lo, hi = Stats.min_max xs in
  check "min" true (lo = 1.0);
  check "max" true (hi = 4.0)

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check "p0" true (Stats.percentile xs 0.0 = 1.0);
  check "p100" true (Stats.percentile xs 100.0 = 4.0);
  check "p50 interpolated" true (abs_float (Stats.percentile xs 50.0 -. 2.5) < 1e-9)

let test_stats_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  (* classic example: population sd 2; sample sd = sqrt(32/7) *)
  check "sample stddev" true (abs_float (Stats.stddev xs -. sqrt (32.0 /. 7.0)) < 1e-9)

let test_stats_percentile_total_order () =
  (* The sort must use Float.compare: with polymorphic compare, nan
     poisons the order and percentiles of clean data shifted around it
     become garbage.  Float.compare totals the order (nan sorts first),
     so percentiles over the clean suffix stay sane. *)
  let xs = [| 3.0; Float.nan; 1.0; 2.0 |] in
  check "p100 ignores nan position" true (Stats.percentile xs 100.0 = 3.0);
  (* Untouched input: percentile copies before sorting. *)
  check "input not mutated" true (xs.(0) = 3.0 && xs.(2) = 1.0)

(* --- Hashing --- *)

let test_hash_deterministic () =
  check "fnv stable" true (Hashing.fnv1a [ 1; 2; 3 ] = Hashing.fnv1a [ 1; 2; 3 ]);
  check "order sensitive" true (Hashing.fnv1a [ 1; 2 ] <> Hashing.fnv1a [ 2; 1 ]);
  check "non-negative" true (Hashing.fnv1a [ max_int; min_int ] >= 0)

let test_hash_seeded () =
  check "seeds differ" true
    (Hashing.fnv1a_seeded ~seed:1 [ 7 ] <> Hashing.fnv1a_seeded ~seed:2 [ 7 ]);
  check "seed 0 matches unseeded" true (Hashing.fnv1a_seeded ~seed:0 [ 7 ] = Hashing.fnv1a [ 7 ])

(* --- pinned streams ---

   Outputs recorded before the RNG state and the FNV core were rewritten
   for allocation-free operation: every experiment's numbers derive from
   these streams, so they must never move. *)

let test_rng_streams_pinned () =
  let pinned =
    [
      ( 0,
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L ],
        [ 8367321170050143165L; -5593573913773984795L; 496793865428327935L;
          -796218591138621766L ],
        [ 85; 844; 693; 508 ],
        [ 0x1.92bfb4c36dbf8p-4; 0x1.daa95605dfc9cp-1 ] );
      ( 1,
        [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
          1310552918490157286L; 7031611932980406429L ],
        [ 6243110573602142007L; -5343123491108834659L; -6027086951509973698L;
          -1212018186333133171L ],
        [ 400; 129; 398; 689 ],
        [ 0x1.3da7b698cc86ap-2; 0x1.53c6c57808dd7p-1 ] );
      ( 42,
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L ],
        [ 2315423597042293463L; -2234526745998941065L; 1596337000078141156L;
          6609098082684862032L ],
        [ 277; 841; 989; 398 ],
        [ 0x1.010cb49684e84p-2; 0x1.bd877e5b10f9ap-2 ] );
    ]
  in
  List.iter
    (fun (seed, raw, split, ints, floats) ->
      let r = Rng.create seed in
      let what s = Printf.sprintf "seed %d %s" seed s in
      Alcotest.(check (list int64)) (what "int64") raw (List.map (fun _ -> Rng.int64 r) raw);
      let child = Rng.split r in
      Alcotest.(check (list int64)) (what "split") split
        (List.map (fun _ -> Rng.int64 child) split);
      Alcotest.(check (list int)) (what "int") ints (List.map (fun _ -> Rng.int r 1000) ints);
      Alcotest.(check (list (float 0.))) (what "float") floats
        (List.map (fun _ -> Rng.float r 1.0) floats))
    pinned

let test_fnv_pinned () =
  check_int "fnv1a [1; 2; -3]" 4152361888579890556 (Hashing.fnv1a [ 1; 2; -3 ]);
  check_int "fnv1a1 7" 3111928648566932994 (Hashing.fnv1a1 7);
  check_int "fnv1a2 5 -9" 1752047642421228992 (Hashing.fnv1a2 5 (-9));
  check_int "fnv1a_seeded 3 [4; 5]" 533523859689578247 (Hashing.fnv1a_seeded ~seed:3 [ 4; 5 ]);
  let st = Hashing.start () in
  List.iter (Hashing.feed st) [ 10; -1; max_int; min_int; 0; 123456789 ];
  check_int "streaming fold" 4294618313889356243 (Hashing.value st);
  check_int "fold = list API" (Hashing.fnv1a_seeded ~seed:10 [ -1; max_int; min_int; 0; 123456789 ])
    (Hashing.value st)

(* --- allocation --- *)

(* Minor words allocated per call of [f], over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_packet_path_allocates_nothing () =
  let n = 100_000 in
  let expect_free ?(result_words = 0.) what w =
    if w >= 1. +. result_words then
      Alcotest.failf "%s allocates %.2f words per call (bound %.0f)" what w (1. +. result_words)
  in
  let t = Mp5_util.Int_table.create () in
  expect_free "Int_table.replace"
    (words_per_call n (fun i -> Mp5_util.Int_table.replace t (i land 1023) i));
  let sum = ref 0 in
  expect_free "Int_table.find"
    (words_per_call n (fun i -> sum := !sum + Mp5_util.Int_table.find t (i land 1023)));
  expect_free "Int_table.remove"
    (words_per_call n (fun i ->
         Mp5_util.Int_table.remove t (i land 1023);
         Mp5_util.Int_table.replace t (i land 1023) i));
  let r = Rng.create 9 in
  expect_free "Rng.int" (words_per_call n (fun _ -> sum := !sum + Rng.int r 1000));
  (* A [float] or [int64] returned across a module boundary is boxed by
     OCaml's calling convention (2 and 3 words); the draw itself must
     allocate nothing on top of that. *)
  expect_free ~result_words:2. "Rng.float" (words_per_call n (fun _ -> ignore (Rng.float r 1.0)));
  expect_free ~result_words:3. "Rng.int64" (words_per_call n (fun _ -> ignore (Rng.int64 r)));
  let st = Hashing.start () in
  expect_free "Hashing.feed" (words_per_call n (fun i -> Hashing.feed st i));
  expect_free "Hashing.fnv1a2" (words_per_call n (fun i -> sum := !sum + Hashing.fnv1a2 i 3));
  (* Steady-state FIFO traffic: phantoms in, data inserted, heads taken. *)
  let f = Fifo.create ~k:4 ~capacity:16 ~adaptive:false in
  expect_free "Fifo.push_phantom/insert_data/take"
    (words_per_call n (fun i ->
         let pos = Fifo.push_phantom f ~ring:(i land 3) ~ts:i ~key:i in
         ignore (Fifo.insert_data f ~pos ~key:i i);
         sum := !sum + Fifo.take f));
  let ch = Mp5_arch.Channel.create () in
  let deliver ~seq ~stage:_ ~dest:_ ~ring:_ ~cell:_ ~slot:_ = sum := !sum + seq in
  expect_free "Channel.schedule/drain"
    (words_per_call n (fun i ->
         Mp5_arch.Channel.schedule ch ~at:(i + 3) ~seq:i ~stage:2 ~dest:1 ~ring:0 ~cell:i
           ~slot:i;
         Mp5_arch.Channel.drain ch ~now:i deliver));
  (* A cursor fill plus advance: each producer writes the source's own
     buffer, so a packet reaches the reader with nothing allocated. *)
  let module Psource = Mp5_workload.Packet_source in
  let m = 20_000 in
  let expect_cursor_free what s =
    expect_free what
      (words_per_call m (fun _ ->
           if Psource.ready s then begin
             sum := !sum + Psource.time s + (Psource.headers s).(0);
             Psource.advance s
           end))
  in
  expect_cursor_free "Packet_source.of_array cursor"
    (Psource.of_array
       (Array.init m (fun i -> { Mp5_banzai.Machine.time = i; port = 0; headers = [| i; 1 |] })));
  List.iter
    (fun pattern ->
      expect_cursor_free "Tracegen cursor"
        (Mp5_workload.Tracegen.sensitivity_source
           {
             Mp5_workload.Tracegen.n_packets = m;
             k = 4;
             pkt_bytes = 64;
             n_fields = 6;
             index_fields = [ 0; 1; 2; 3 ];
             reg_size = 512;
             pattern;
             n_ports = 64;
             seed = 3;
           }))
    Mp5_workload.Tracegen.[ Uniform; Skewed; Skewed_rotating 500; Uniform_bursty 700 ];
  let topo = Mp5_fabric.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  expect_cursor_free "Traffic cursor"
    (Mp5_fabric.Traffic.source
       { (Mp5_fabric.Traffic.default_spec topo) with Mp5_fabric.Traffic.n_packets = m });
  (* A compiled many-key [hash(...)] folds through a state it owns. *)
  let module Expr = Mp5_banzai.Expr in
  let h = Expr.compile [||] ~state:None (Expr.Hash [ Field 0; Field 1; Field 2; Field 3 ]) in
  let frame = Expr.frame_of_array [| 1; 2; 3; 4 |] in
  expect_free "compiled 4-key hash" (words_per_call n (fun _ -> sum := !sum + h frame));
  ignore (Sys.opaque_identity !sum)

(* A clean monitor check allocates nothing: a metered flowlet run with a
   monitor checking every cycle (queued packets, pending transfers and
   the metrics totals all walked) allocates less than one word per check
   more than the same run without one. *)
let test_monitor_check_allocates_nothing () =
  let module Sim = Mp5_core.Sim in
  let module Monitor = Mp5_fault.Monitor in
  let sw = Mp5_core.Switch.create_exn (List.assoc "flowlet" Mp5_apps.Sources.all_named) in
  let pkts = Mp5_workload.Tracegen.flows ~seed:3 ~n_packets:1_000 ~k:4 ~concurrency:32 () in
  let trace = Mp5_apps.Traces.trace_for "flowlet" pkts in
  let params = Sim.default_params ~k:4 in
  let stages = Array.length sw.Mp5_core.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let words ?monitor () =
    let metrics = Mp5_obs.Metrics.create ~stages ~k:4 in
    let before = Gc.minor_words () in
    (match
       Sim.run_source ~metrics ?monitor params sw.Mp5_core.Switch.prog
         (Mp5_workload.Packet_source.of_array trace)
     with
    | Sim.Completed s -> ignore (Sys.opaque_identity s)
    | Sim.Suspended _ -> Alcotest.fail "run suspended");
    Gc.minor_words () -. before
  in
  let bare = words () in
  let mon = Monitor.create ~epoch:1 () in
  let monitored = words ~monitor:mon () in
  check "monitor clean" true (Monitor.ok mon);
  check "checks ran" true (Monitor.checks mon > 500);
  let per_check = (monitored -. bare) /. float_of_int (Monitor.checks mon) in
  if per_check >= 1. then
    Alcotest.failf "a clean monitor check allocates %.2f words (%d checks)" per_check
      (Monitor.checks mon)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "streams pinned" `Quick test_rng_streams_pinned;
        ] );
      ( "ring-buffer",
        [
          Alcotest.test_case "fifo order" `Quick test_rb_fifo_order;
          Alcotest.test_case "full drops" `Quick test_rb_full_drop;
          Alcotest.test_case "wraparound" `Quick test_rb_wraparound;
          Alcotest.test_case "get/set" `Quick test_rb_get_set;
          Alcotest.test_case "stable addresses" `Quick test_rb_stable_addresses;
          Alcotest.test_case "grow" `Quick test_rb_grow;
          Alcotest.test_case "grow when wrapped" `Quick test_rb_grow_wrapped;
          Alcotest.test_case "iter" `Quick test_rb_iter;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform support" `Quick test_dist_uniform_support;
          Alcotest.test_case "weights respected" `Quick test_dist_weights_respected;
          Alcotest.test_case "skewed mass" `Quick test_dist_skewed_mass;
          Alcotest.test_case "invalid inputs" `Quick test_dist_invalid;
          Alcotest.test_case "empirical interpolation" `Quick test_empirical_interpolation;
          Alcotest.test_case "empirical validation" `Quick test_empirical_validation;
          Alcotest.test_case "bimodal" `Quick test_bimodal;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/min/max" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile total order" `Quick test_stats_percentile_total_order;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "seeded" `Quick test_hash_seeded;
          Alcotest.test_case "fnv values pinned" `Quick test_fnv_pinned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "packet-path utilities allocate nothing" `Quick
            test_packet_path_allocates_nothing;
          Alcotest.test_case "clean monitor check allocates nothing" `Quick
            test_monitor_check_allocates_nothing;
        ] );
    ]
