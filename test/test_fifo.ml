(* Tests for the logical k-ring FIFO: push/insert/pop semantics, phantom
   blocking, cancellation, positions, growth. *)

module Fifo = Mp5_arch.Fifo
module Channel = Mp5_arch.Channel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every FIFO case runs twice, once per constructor: [create_small]
   starts each ring at one physical slot and must be observably
   identical to [create]. *)
let small = ref false

let mk ?(k = 2) ?(capacity = 4) ?(adaptive = false) () =
  (if !small then Fifo.create_small else Fifo.create) ~k ~capacity ~adaptive

(* [head]/[take] codes: payload >= 0, [Fifo.empty], or a blocked key. *)
let blocked key = -2 - key

(* A phantom that must be accepted: its position. *)
let push f ~ring ~ts ~key =
  let pos = Fifo.push_phantom f ~ring ~ts ~key in
  if pos < 0 then Alcotest.fail "dropped";
  pos

let insert f ~pos ~key v =
  match Fifo.insert_data f ~pos ~key v with `Ok -> () | `No_phantom -> Alcotest.fail "miss"

let misses f ~pos ~key = Fifo.insert_data f ~pos ~key 0 = `No_phantom

let test_empty () =
  let f = mk () in
  check_int "empty head" Fifo.empty (Fifo.head f);
  check_int "length" 0 (Fifo.length f)

let test_phantom_blocks () =
  let f = mk () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  check_int "expected blocked head" (blocked 1) (Fifo.head f);
  check_int "blocked key decodes" 1 (Fifo.blocked_key (Fifo.head f));
  (* Insert the data; the head becomes ready. *)
  insert f ~pos:p1 ~key:1 100;
  check_int "expected ready data" 100 (Fifo.head f);
  check_int "ready head key" 1 (Fifo.head_key f);
  check_int "pop" 100 (Fifo.pop_data f);
  check_int "empty after" Fifo.empty (Fifo.head f)

let test_pop_min_timestamp_across_rings () =
  let f = mk () in
  let p5 = push f ~ring:0 ~ts:5 ~key:5 in
  let p3 = push f ~ring:1 ~ts:3 ~key:3 in
  insert f ~pos:p5 ~key:5 50;
  insert f ~pos:p3 ~key:3 30;
  check_int "smaller ts first" 30 (Fifo.pop_data f);
  check_int "then larger" 50 (Fifo.pop_data f)

let test_phantom_blocks_other_rings () =
  (* A phantom with the smallest timestamp blocks ready data in other
     rings: that is exactly D4's order enforcement. *)
  let f = mk () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  let p2 = push f ~ring:1 ~ts:2 ~key:2 in
  insert f ~pos:p2 ~key:2 20;
  check_int "phantom must block later data" (blocked 1) (Fifo.head f);
  insert f ~pos:p1 ~key:1 10;
  check_int "order restored" 10 (Fifo.pop_data f);
  check_int "then second" 20 (Fifo.pop_data f)

let test_insert_miss_after_drop () =
  let f = mk ~capacity:1 () in
  ignore (push f ~ring:0 ~ts:1 ~key:1 : int);
  let p2 = Fifo.push_phantom f ~ring:0 ~ts:2 ~key:2 in
  check_int "expected drop at capacity" (-1) p2;
  (* The dropped phantom's data packet finds no placeholder. *)
  check "insert misses" true (misses f ~pos:p2 ~key:2)

let test_adaptive_growth () =
  let f = mk ~capacity:1 ~adaptive:true () in
  ignore (push f ~ring:0 ~ts:1 ~key:1 : int);
  check "adaptive ring must grow" true (Fifo.push_phantom f ~ring:0 ~ts:2 ~key:2 >= 0);
  check_int "both queued" 2 (Fifo.length f)

let test_cancel () =
  let f = mk () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  let p2 = push f ~ring:0 ~ts:2 ~key:2 in
  insert f ~pos:p2 ~key:2 20;
  Fifo.cancel f ~pos:p1 ~key:1;
  (* The cancelled phantom is purged for free; key 2 surfaces. *)
  check_int "cancelled phantom should be skipped" 20 (Fifo.head f);
  check_int "surfaced key" 2 (Fifo.head_key f);
  check_int "pop" 20 (Fifo.pop_data f)

let test_cancel_unknown_is_noop () =
  let f = mk () in
  Fifo.cancel f ~pos:(-1) ~key:42;
  Fifo.cancel f ~pos:0 ~key:42;
  check_int "still empty" Fifo.empty (Fifo.head f);
  (* A position naming a queued entry under another key, or a ring
     the FIFO does not have, cancels nothing. *)
  let p1 = push f ~ring:1 ~ts:1 ~key:1 in
  Fifo.cancel f ~pos:p1 ~key:42;
  Fifo.cancel f ~pos:((p1 land lnot 63) lor 5) ~key:1;
  check_int "phantom untouched" (blocked 1) (Fifo.head f);
  insert f ~pos:p1 ~key:1 10;
  check_int "and still insertable" 10 (Fifo.pop_data f)

let test_cancelled_blocks_insert () =
  let f = mk () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  Fifo.cancel f ~pos:p1 ~key:1;
  check "insert on cancelled misses" true (misses f ~pos:p1 ~key:1)

(* A position goes stale when its entry leaves the ring — popped, or a
   cancelled entry purged at the head — and stays stale however the
   ring is refilled or its storage grown: the next entries get new
   sequence numbers.  A stale position misses on insert and cancels
   nothing. *)
let test_stale_positions () =
  let f = mk ~k:1 ~capacity:2 ~adaptive:true () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  insert f ~pos:p1 ~key:1 10;
  check_int "pop" 10 (Fifo.pop_data f);
  check "popped: insert misses" true (misses f ~pos:p1 ~key:1);
  let p2 = push f ~ring:0 ~ts:2 ~key:2 in
  Fifo.cancel f ~pos:p2 ~key:2;
  check_int "purged" Fifo.empty (Fifo.head f);
  check "purged: insert misses" true (misses f ~pos:p2 ~key:2);
  (* Refill past the original storage (adaptive growth moves the live
     entries), reusing the stale entries' keys. *)
  let fresh = List.init 9 (fun i -> (i + 3, push f ~ring:0 ~ts:(i + 3) ~key:(i + 3))) in
  let p1' = push f ~ring:0 ~ts:20 ~key:1 in
  check "refilled: stale position misses" true (misses f ~pos:p1 ~key:1);
  Fifo.cancel f ~pos:p2 ~key:2;
  Fifo.cancel f ~pos:p1 ~key:1;
  check_int "nothing cancelled" 10 (Fifo.length f);
  (* The live positions survived the growth. *)
  List.iter (fun (key, pos) -> insert f ~pos ~key (key * 10)) fresh;
  insert f ~pos:p1' ~key:1 1;
  List.iter (fun (key, _) -> check_int "in order" (key * 10) (Fifo.pop_data f)) fresh;
  check_int "last" 1 (Fifo.pop_data f)

let test_push_data_direct () =
  let f = mk () in
  ignore (Fifo.push_data f ~ring:0 ~ts:2 ~key:2 22);
  ignore (Fifo.push_data f ~ring:1 ~ts:1 ~key:1 11);
  check_int "min ts" 11 (Fifo.pop_data f);
  check_int "next" 22 (Fifo.pop_data f)

let test_data_length_and_high_water () =
  let f = mk () in
  let p1 = push f ~ring:0 ~ts:1 ~key:1 in
  check_int "phantoms are not data" 0 (Fifo.data_length f);
  insert f ~pos:p1 ~key:1 10;
  ignore (Fifo.push_data f ~ring:1 ~ts:2 ~key:2 20);
  check_int "two data" 2 (Fifo.data_length f);
  check_int "high water" 2 (Fifo.max_occupancy f);
  ignore (Fifo.pop_data f);
  ignore (Fifo.pop_data f);
  check_int "drained" 0 (Fifo.data_length f);
  check_int "high water sticks" 2 (Fifo.max_occupancy f)

let test_fifo_order_within_ring () =
  let f = mk ~capacity:8 () in
  let pos = Array.init 6 (fun i -> if i = 0 then -1 else push f ~ring:0 ~ts:i ~key:i) in
  for i = 5 downto 1 do
    insert f ~pos:pos.(i) ~key:i (i * 10)
  done;
  for i = 1 to 5 do
    check_int "in ts order" (i * 10) (Fifo.pop_data f)
  done

let test_pop_on_phantom_raises () =
  let f = mk () in
  ignore (push f ~ring:0 ~ts:1 ~key:1 : int);
  Alcotest.check_raises "pop phantom" (Invalid_argument "Fifo.pop_data: head is a phantom")
    (fun () -> ignore (Fifo.pop_data f))

(* A decoded phantom gets the position a push would have answered
   ([Fifo.codec]), so it takes its data packet like a pushed one. *)
let test_restore_positions () =
  let src = mk ~capacity:4 () in
  for i = 1 to 7 do
    ignore (Fifo.push_data src ~ring:1 ~ts:0 ~key:i i : [ `Ok | `Dropped ]);
    ignore (Fifo.pop_data src : int)
  done;
  let p = push src ~ring:1 ~ts:3 ~key:3 in
  let q = push src ~ring:1 ~ts:4 ~key:4 in
  check_int "first position" ((7 lsl 6) lor 1) p;
  check_int "second position" ((8 lsl 6) lor 1) q;
  let module C = Mp5_util.Codec in
  let snap =
    C.encode ~magic:"fifo" (fun io -> Fifo.codec io src ~data:Fun.id ~phantom:(fun _ _ -> ()))
  in
  let f = mk ~capacity:4 () and got = ref [] in
  (match Mp5_util.Binio.of_string ~magic:"fifo" snap with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Fifo.codec (C.reader r) f ~data:Fun.id ~phantom:(fun key pos -> got := (key, pos) :: !got));
  Alcotest.(check (list (pair int int))) "decoded positions" [ (3, p); (4, q) ] (List.rev !got);
  check "wrong key misses" true (misses f ~pos:p ~key:4);
  insert f ~pos:p ~key:3 30;
  insert f ~pos:q ~key:4 40;
  check_int "restored data pops" 30 (Fifo.pop_data f);
  check_int "then" 40 (Fifo.pop_data f)

(* --- phantom channel --- *)

(* The deliveries due at [now] as (seq, stage, dest, ring, cell); each
   delivery's slot is checked against the one [schedule] gave it. *)
let due ch ~now =
  let got = ref [] in
  Channel.drain ch ~now (fun ~seq ~stage ~dest ~ring ~cell ~slot ->
      check_int "slot carried" (3 * seq) slot;
      got := (seq, stage, dest, ring, cell) :: !got);
  List.rev !got

let schedule ch ~at seq =
  Channel.schedule ch ~at ~seq ~stage:(seq mod 5) ~dest:1 ~ring:2 ~cell:(-1) ~slot:(3 * seq)

let test_channel_delivery () =
  let ch = Channel.create () in
  schedule ch ~at:5 10;
  schedule ch ~at:5 11;
  schedule ch ~at:7 12;
  check_int "pending" 3 (Channel.pending ch);
  let seqs l = List.map (fun (seq, _, _, _, _) -> seq) l in
  Alcotest.(check (list int)) "in order" [ 10; 11 ] (seqs (due ch ~now:5));
  Alcotest.(check (list int)) "nothing at 6" [] (seqs (due ch ~now:6));
  (match due ch ~now:7 with
  | [ (12, 2, 1, 2, -1) ] -> ()
  | _ -> Alcotest.fail "late one, with its stage/dest/ring/cell intact");
  check_int "drained" 0 (Channel.pending ch)

let test_channel_due_removes () =
  let ch = Channel.create () in
  schedule ch ~at:1 42;
  ignore (due ch ~now:1);
  check_int "removed" 0 (List.length (due ch ~now:1))

(* A callback that schedules ahead of the cycle being drained, at any
   distance (across the calendar's window edge included), must neither
   overwrite deliveries of that cycle not yet handed out nor lose its
   own. *)
let test_channel_schedule_from_drain () =
  for d = 1 to 80 do
    let ch = Channel.create () in
    List.iter (fun seq -> schedule ch ~at:0 seq) [ 1; 2; 3 ];
    schedule ch ~at:5 4;
    let got = ref [] in
    Channel.drain ch ~now:0 (fun ~seq ~stage:_ ~dest:_ ~ring:_ ~cell:_ ~slot:_ ->
        got := seq :: !got;
        if seq = 1 then begin
          schedule ch ~at:d 10;
          schedule ch ~at:d 11
        end);
    Alcotest.(check (list int)) (Printf.sprintf "cycle 0, d=%d" d) [ 1; 2; 3 ] (List.rev !got);
    let rest = ref [] in
    for now = 1 to max d 5 do
      List.iter (fun (seq, _, _, _, _) -> rest := (now, seq) :: !rest) (due ch ~now)
    done;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "later cycles, d=%d" d)
      (List.sort compare [ (5, 4); (d, 10); (d, 11) ])
      (List.sort compare !rest);
    check_int (Printf.sprintf "drained, d=%d" d) 0 (Channel.pending ch)
  done

(* [set_slots] rewrites every pending delivery's slot, in [iter]
   order, and nothing else. *)
let test_channel_set_slots () =
  let ch = Channel.create () in
  List.iter (fun (at, seq) -> schedule ch ~at seq) [ (4, 1); (2, 2); (4, 3); (9, 4) ];
  let order = ref [] in
  Channel.set_slots ch (fun ~seq ~stage ~dest ~cell ~slot ->
      check_int "stage" (seq mod 5) stage;
      check_int "dest" 1 dest;
      check_int "cell" (-1) cell;
      check_int "old slot" (3 * seq) slot;
      order := seq :: !order;
      7 * seq);
  Alcotest.(check (list int)) "iter order" [ 2; 1; 3; 4 ] (List.rev !order);
  let got = ref [] in
  Channel.iter ch (fun ~at ~seq ~stage:_ ~dest ~ring ~cell ~slot ->
      got := (at, seq, dest, ring, cell, slot) :: !got);
  Alcotest.(check (list (list int)))
    "rewritten"
    [
      [ 2; 2; 1; 2; -1; 14 ]; [ 4; 1; 1; 2; -1; 7 ]; [ 4; 3; 1; 2; -1; 21 ]; [ 9; 4; 1; 2; -1; 28 ];
    ]
    (List.rev_map (fun (a, b, c, d, e, f) -> [ a; b; c; d; e; f ]) !got)

let fifo_cases =
  [
    ("empty", test_empty);
    ("phantom blocks until insert", test_phantom_blocks);
    ("pop picks min timestamp", test_pop_min_timestamp_across_rings);
    ("phantom blocks other rings", test_phantom_blocks_other_rings);
    ("insert misses after drop", test_insert_miss_after_drop);
    ("adaptive growth", test_adaptive_growth);
    ("cancel", test_cancel);
    ("cancel unknown", test_cancel_unknown_is_noop);
    ("cancelled blocks insert", test_cancelled_blocks_insert);
    ("push data direct", test_push_data_direct);
    ("data length / high water", test_data_length_and_high_water);
    ("order within ring", test_fifo_order_within_ring);
    ("pop on phantom raises", test_pop_on_phantom_raises);
    ("stale positions miss", test_stale_positions);
    ("restored entries have positions", test_restore_positions);
  ]

let one_slot (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      small := true;
      Fun.protect ~finally:(fun () -> small := false) f)

let () =
  Alcotest.run "fifo"
    [
      ("fifo", List.map (fun (name, f) -> Alcotest.test_case name `Quick f) fifo_cases);
      ("fifo one-slot storage", List.map one_slot fifo_cases);
      ( "channel",
        [
          Alcotest.test_case "delivery" `Quick test_channel_delivery;
          Alcotest.test_case "due removes" `Quick test_channel_due_removes;
          Alcotest.test_case "schedule from a drain callback" `Quick
            test_channel_schedule_from_drain;
          Alcotest.test_case "set_slots" `Quick test_channel_set_slots;
        ] );
    ]
