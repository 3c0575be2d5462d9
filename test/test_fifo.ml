(* Tests for the logical k-ring FIFO: push/insert/pop semantics, phantom
   blocking, cancellation, directory behaviour, growth. *)

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

let test_empty () =
  let f = mk () in
  check_int "empty head" Fifo.empty (Fifo.head f);
  check_int "length" 0 (Fifo.length f)

let test_phantom_blocks () =
  let f = mk () in
  (match Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1 with `Ok -> () | `Dropped -> Alcotest.fail "dropped");
  check_int "expected blocked head" (blocked 1) (Fifo.head f);
  check_int "blocked key decodes" 1 (Fifo.blocked_key (Fifo.head f));
  (* Insert the data; the head becomes ready. *)
  (match Fifo.insert_data f ~key:1 100 with `Ok -> () | `No_phantom -> Alcotest.fail "miss");
  check_int "expected ready data" 100 (Fifo.head f);
  check_int "ready head key" 1 (Fifo.head_key f);
  check_int "pop" 100 (Fifo.pop_data f);
  check_int "empty after" Fifo.empty (Fifo.head f)

let test_pop_min_timestamp_across_rings () =
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:5 ~key:5);
  ignore (Fifo.push_phantom f ~ring:1 ~ts:3 ~key:3);
  ignore (Fifo.insert_data f ~key:5 50);
  ignore (Fifo.insert_data f ~key:3 30);
  check_int "smaller ts first" 30 (Fifo.pop_data f);
  check_int "then larger" 50 (Fifo.pop_data f)

let test_phantom_blocks_other_rings () =
  (* A phantom with the smallest timestamp blocks ready data in other
     rings: that is exactly D4's order enforcement. *)
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  ignore (Fifo.push_phantom f ~ring:1 ~ts:2 ~key:2);
  ignore (Fifo.insert_data f ~key:2 20);
  check_int "phantom must block later data" (blocked 1) (Fifo.head f);
  ignore (Fifo.insert_data f ~key:1 10);
  check_int "order restored" 10 (Fifo.pop_data f);
  check_int "then second" 20 (Fifo.pop_data f)

let test_insert_miss_after_drop () =
  let f = mk ~capacity:1 () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  (match Fifo.push_phantom f ~ring:0 ~ts:2 ~key:2 with
  | `Dropped -> ()
  | `Ok -> Alcotest.fail "expected drop at capacity");
  (* The dropped phantom's data packet finds no placeholder. *)
  check "insert misses" true (Fifo.insert_data f ~key:2 99 = `No_phantom)

let test_adaptive_growth () =
  let f = mk ~capacity:1 ~adaptive:true () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  (match Fifo.push_phantom f ~ring:0 ~ts:2 ~key:2 with
  | `Ok -> ()
  | `Dropped -> Alcotest.fail "adaptive ring must grow");
  check_int "both queued" 2 (Fifo.length f)

let test_cancel () =
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  ignore (Fifo.push_phantom f ~ring:0 ~ts:2 ~key:2);
  ignore (Fifo.insert_data f ~key:2 20);
  Fifo.cancel f ~key:1;
  (* The cancelled phantom is purged for free; key 2 surfaces. *)
  check_int "cancelled phantom should be skipped" 20 (Fifo.head f);
  check_int "surfaced key" 2 (Fifo.head_key f);
  check_int "pop" 20 (Fifo.pop_data f)

let test_cancel_unknown_is_noop () =
  let f = mk () in
  Fifo.cancel f ~key:42;
  check_int "still empty" Fifo.empty (Fifo.head f)

let test_cancelled_blocks_insert () =
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  Fifo.cancel f ~key:1;
  check "insert on cancelled misses" true (Fifo.insert_data f ~key:1 5 = `No_phantom)

let test_push_data_direct () =
  let f = mk () in
  ignore (Fifo.push_data f ~ring:0 ~ts:2 ~key:2 22);
  ignore (Fifo.push_data f ~ring:1 ~ts:1 ~key:1 11);
  check_int "min ts" 11 (Fifo.pop_data f);
  check_int "next" 22 (Fifo.pop_data f)

let test_data_length_and_high_water () =
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  check_int "phantoms are not data" 0 (Fifo.data_length f);
  ignore (Fifo.insert_data f ~key:1 10);
  ignore (Fifo.push_data f ~ring:1 ~ts:2 ~key:2 20);
  check_int "two data" 2 (Fifo.data_length f);
  check_int "high water" 2 (Fifo.max_occupancy f);
  ignore (Fifo.pop_data f);
  ignore (Fifo.pop_data f);
  check_int "drained" 0 (Fifo.data_length f);
  check_int "high water sticks" 2 (Fifo.max_occupancy f)

let test_fifo_order_within_ring () =
  let f = mk ~capacity:8 () in
  for i = 1 to 5 do
    ignore (Fifo.push_phantom f ~ring:0 ~ts:i ~key:i)
  done;
  for i = 5 downto 1 do
    ignore (Fifo.insert_data f ~key:i (i * 10))
  done;
  for i = 1 to 5 do
    check_int "in ts order" (i * 10) (Fifo.pop_data f)
  done

let test_pop_on_phantom_raises () =
  let f = mk () in
  ignore (Fifo.push_phantom f ~ring:0 ~ts:1 ~key:1);
  Alcotest.check_raises "pop phantom" (Invalid_argument "Fifo.pop_data: head is a phantom")
    (fun () -> ignore (Fifo.pop_data f))

(* --- phantom channel --- *)

(* The deliveries due at [now] as (seq, stage, dest, ring, cell). *)
let due ch ~now =
  let got = ref [] in
  Channel.drain ch ~now (fun ~seq ~stage ~dest ~ring ~cell ->
      got := (seq, stage, dest, ring, cell) :: !got);
  List.rev !got

let schedule ch ~at seq = Channel.schedule ch ~at ~seq ~stage:(seq mod 5) ~dest:1 ~ring:2 ~cell:(-1)

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
    Channel.drain ch ~now:0 (fun ~seq ~stage:_ ~dest:_ ~ring:_ ~cell:_ ->
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
        ] );
    ]
