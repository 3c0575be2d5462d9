(* Unit tests for the golden single-pipeline machine: sequential semantics,
   arrival ordering, access-sequence recording. *)

module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = (Mp5_domino.Compile.compile_exn src).Mp5_domino.Compile.config

let counter_config () =
  compile
    {|
struct Packet { int seqno; };
int count;
void func(struct Packet p) {
    count = count + 1;
    p.seqno = count;
}
|}

let test_counter_sequence () =
  let config = counter_config () in
  let trace =
    Array.init 5 (fun i -> { Machine.time = i; port = 0; headers = [| 0 |] })
  in
  let r = Machine.run config trace in
  check_int "final count" 5 (Store.get r.Machine.store ~reg:0 ~idx:0);
  Array.iteri
    (fun i h -> check_int (Printf.sprintf "packet %d seqno" i) (i + 1) h.(0))
    r.Machine.headers_out;
  (match Hashtbl.find_opt r.Machine.access_seqs (0, 0) with
  | Some seq -> Alcotest.(check (list int)) "access order" [ 0; 1; 2; 3; 4 ] seq
  | None -> Alcotest.fail "no access sequence recorded")

let test_sort_trace_by_time_then_port () =
  let mk time port = { Machine.time; port; headers = [||] } in
  let sorted = Machine.sort_trace [| mk 1 0; mk 0 2; mk 0 1; mk 1 1 |] in
  let keys = Array.to_list (Array.map (fun i -> (i.Machine.time, i.Machine.port)) sorted) in
  Alcotest.(check (list (pair int int))) "ordered" [ (0, 1); (0, 2); (1, 0); (1, 1) ] keys

let test_sort_trace_stable () =
  let mk time port h = { Machine.time; port; headers = [| h |] } in
  let sorted = Machine.sort_trace [| mk 0 0 1; mk 0 0 2; mk 0 0 3 |] in
  Alcotest.(check (list int)) "stable for equal keys" [ 1; 2; 3 ]
    (Array.to_list (Array.map (fun i -> i.Machine.headers.(0)) sorted))

let test_figure3_exact () =
  let config = compile Mp5_apps.Sources.figure3 in
  (* A..D: mux=1, h1=1, h3=2; E: mux=0, h2=3, h3=2.  reg1[1]=4, reg2[3]=7.
     reg3[2] starts 0: A..D multiply (0*4=0), E adds 7 -> 7. *)
  let mk h1 h2 h3 mux time port = { Machine.time; port; headers = [| h1; h2; h3; 0; mux |] } in
  let trace =
    [| mk 1 1 2 1 0 1; mk 1 1 2 1 0 2; mk 1 1 2 1 1 1; mk 1 1 2 1 1 2; mk 1 3 2 0 2 1 |]
  in
  let r = Machine.run config trace in
  check_int "reg3[2]" 7 (Store.get r.Machine.store ~reg:2 ~idx:2);
  check_int "A.val = reg1[1]" 4 r.Machine.headers_out.(0).(3);
  check_int "E.val = reg2[3]" 7 r.Machine.headers_out.(4).(3);
  (match Hashtbl.find_opt r.Machine.access_seqs (2, 2) with
  | Some seq -> Alcotest.(check (list int)) "reg3[2] access order" [ 0; 1; 2; 3; 4 ] seq
  | None -> Alcotest.fail "no reg3 accesses");
  (* E accessed reg2, not reg1. *)
  (match Hashtbl.find_opt r.Machine.access_seqs (0, 1) with
  | Some seq -> Alcotest.(check (list int)) "reg1[1] accessed by A..D" [ 0; 1; 2; 3 ] seq
  | None -> Alcotest.fail "no reg1 accesses");
  check "reg2[3] accessed only by E" true (Hashtbl.find_opt r.Machine.access_seqs (1, 3) = Some [ 4 ])

let test_guard_false_no_access () =
  let config =
    compile
      {|
struct Packet { int x; };
int r[4];
void func(struct Packet p) {
    if (p.x > 10) { r[0] = r[0] + 1; }
}
|}
  in
  let trace =
    [|
      { Machine.time = 0; port = 0; headers = [| 5 |] };
      { Machine.time = 1; port = 0; headers = [| 15 |] };
    |]
  in
  let r = Machine.run config trace in
  check_int "only guarded increment" 1 (Store.get r.Machine.store ~reg:0 ~idx:0);
  check "only packet 1 accessed" true (Hashtbl.find_opt r.Machine.access_seqs (0, 0) = Some [ 1 ])

let test_headers_out_user_fields_only () =
  let config = counter_config () in
  let trace = [| { Machine.time = 0; port = 0; headers = [| 0 |] } |] in
  let r = Machine.run config trace in
  check_int "only user fields" 1 (Array.length r.Machine.headers_out.(0))

let test_run_packet_shared_store () =
  let config = counter_config () in
  let store = Store.create config in
  let fields = Array.make (Array.length config.Mp5_banzai.Config.fields) 0 in
  let hits = ref 0 in
  Machine.run_packet config store ~fields ~on_access:(fun ~reg:_ ~cell:_ -> incr hits);
  Machine.run_packet config store ~fields ~on_access:(fun ~reg:_ ~cell:_ -> incr hits);
  check_int "two accesses" 2 !hits;
  check_int "state persisted" 2 (Store.get store ~reg:0 ~idx:0)

(* The golden machine's bookkeeping as it was first written: one
   polymorphic table of per-cell sequences, updated access by access.
   Slow, but obviously right — the reference the slot-and-log
   [Machine.run] is held to, down to the table's iteration order. *)
let reference_run (config : Mp5_banzai.Config.t) trace =
  let store = Store.create config in
  let n = Array.length trace in
  let headers_out = Array.make n [||] in
  let access_seqs : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun pkt_id (input : Machine.input) ->
      let fields = Array.make (Array.length config.fields) 0 in
      Array.blit input.headers 0 fields 0 (min (Array.length input.headers) config.n_user_fields);
      let on_access ~reg ~cell =
        let key = (reg, cell) in
        let seq = try Hashtbl.find access_seqs key with Not_found -> [] in
        Hashtbl.replace access_seqs key (pkt_id :: seq)
      in
      Machine.run_packet config store ~fields ~on_access;
      headers_out.(pkt_id) <- Array.sub fields 0 config.n_user_fields)
    trace;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) access_seqs [] in
  List.iter (fun k -> Hashtbl.replace access_seqs k (List.rev (Hashtbl.find access_seqs k))) keys;
  { Machine.store; headers_out; access_seqs }

(* Bindings in iteration order: equal lists mean equal contents *and* an
   unchanged [Hashtbl.iter] order for every consumer of the table. *)
let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let test_hot_cell_bookkeeping () =
  let n = 4_000 in
  let trace = Array.init n (fun i -> { Machine.time = i; port = 0; headers = [| 0 |] }) in
  let r = Machine.run (counter_config ()) trace in
  Alcotest.(check (list int)) "access_seqs (0, 0)" (List.init n Fun.id)
    (Hashtbl.find r.Machine.access_seqs (0, 0));
  check_int "one cell" 1 (Hashtbl.length r.Machine.access_seqs)

let test_matches_reference_on_apps () =
  let pkts = Mp5_workload.Tracegen.flows ~seed:41 ~n_packets:1_500 ~k:4 ~concurrency:64 () in
  List.iter
    (fun (name, src) ->
      let config = compile src in
      let trace = Mp5_apps.Traces.trace_for name pkts in
      let want = reference_run config trace and got = Machine.run config trace in
      check (name ^ " store") true (Store.equal want.Machine.store got.Machine.store);
      check (name ^ " headers_out") true (want.Machine.headers_out = got.Machine.headers_out);
      check (name ^ " access_seqs") true
        (bindings want.Machine.access_seqs = bindings got.Machine.access_seqs))
    Mp5_apps.Sources.all_named

let () =
  Alcotest.run "machine"
    [
      ( "golden",
        [
          Alcotest.test_case "counter sequence" `Quick test_counter_sequence;
          Alcotest.test_case "sort by time then port" `Quick test_sort_trace_by_time_then_port;
          Alcotest.test_case "sort stability" `Quick test_sort_trace_stable;
          Alcotest.test_case "figure 3 exact values" `Quick test_figure3_exact;
          Alcotest.test_case "guard false = no access" `Quick test_guard_false_no_access;
          Alcotest.test_case "headers out are user fields" `Quick test_headers_out_user_fields_only;
          Alcotest.test_case "run_packet shares store" `Quick test_run_packet_shared_store;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "hot cell order is a counter" `Quick test_hot_cell_bookkeeping;
          Alcotest.test_case "apps match the List.length reference" `Quick
            test_matches_reference_on_apps;
        ] );
    ]
