(* Tests for workload generation: arrival processes, access patterns,
   flow-level traffic, the web-search distribution. *)

module Tracegen = Mp5_workload.Tracegen
module Websearch = Mp5_workload.Websearch
module Machine = Mp5_banzai.Machine
module Rng = Mp5_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec ?(n = 4000) ?(k = 4) ?(bytes = 64) ?(reg = 512) ?(pattern = Tracegen.Uniform) () =
  {
    Tracegen.n_packets = n;
    k;
    pkt_bytes = bytes;
    n_fields = 3;
    index_fields = [ 0; 1 ];
    reg_size = reg;
    pattern;
    n_ports = 64;
    seed = 9;
  }

let test_line_rate_64b () =
  (* 64-byte packets at line rate: exactly k arrivals per cycle. *)
  let trace = Tracegen.sensitivity (spec ()) in
  let by_time = Hashtbl.create 64 in
  Array.iter
    (fun i ->
      let c = try Hashtbl.find by_time i.Machine.time with Not_found -> 0 in
      Hashtbl.replace by_time i.Machine.time (c + 1))
    trace;
  Hashtbl.iter (fun _ c -> check_int "k per cycle" 4 c) by_time

let test_larger_packets_slower () =
  let t64 = Tracegen.sensitivity (spec ~bytes:64 ()) in
  let t512 = Tracegen.sensitivity (spec ~bytes:512 ()) in
  let span t = t.(Array.length t - 1).Machine.time - t.(0).Machine.time in
  check "8x packets stretch 8x" true (span t512 >= 7 * span t64)

let test_times_monotone () =
  let trace = Tracegen.sensitivity (spec ~bytes:200 ()) in
  let ok = ref true in
  Array.iteri
    (fun i p -> if i > 0 && p.Machine.time < trace.(i - 1).Machine.time then ok := false)
    trace;
  check "non-decreasing times" true !ok

let test_index_fields_in_range () =
  let trace = Tracegen.sensitivity (spec ~reg:32 ~pattern:Tracegen.Skewed ()) in
  Array.iter
    (fun p ->
      check "field 0 in range" true (p.Machine.headers.(0) >= 0 && p.Machine.headers.(0) < 32);
      check "field 1 in range" true (p.Machine.headers.(1) >= 0 && p.Machine.headers.(1) < 32))
    trace

let test_skew_concentration () =
  let trace = Tracegen.sensitivity (spec ~n:20000 ~reg:100 ~pattern:Tracegen.Skewed ()) in
  let hot = Array.fold_left (fun acc p -> if p.Machine.headers.(0) < 30 then acc + 1 else acc) 0 trace in
  let frac = float_of_int hot /. 20000.0 in
  check "95/30 skew" true (abs_float (frac -. 0.95) < 0.02)

let test_rotating_skew_moves () =
  let trace =
    Tracegen.sensitivity (spec ~n:20000 ~reg:100 ~pattern:(Tracegen.Skewed_rotating 5000) ())
  in
  (* The modal region of the first and last windows must differ. *)
  let window lo hi =
    let counts = Array.make 100 0 in
    for i = lo to hi - 1 do
      let v = trace.(i).Machine.headers.(0) in
      counts.(v) <- counts.(v) + 1
    done;
    counts
  in
  let first = window 0 5000 and last = window 15000 20000 in
  let top c =
    let best = ref 0 in
    Array.iteri (fun i v -> if v > c.(!best) then best := i) c;
    !best
  in
  check "hot region moved" true (top first <> top last)

let test_bursty_uniform_long_run () =
  let trace =
    Tracegen.sensitivity (spec ~n:40000 ~reg:50 ~pattern:(Tracegen.Uniform_bursty 2000) ())
  in
  (* Long-run roughly uniform: every cell touched. *)
  let counts = Array.make 50 0 in
  Array.iter (fun p -> counts.(p.Machine.headers.(0)) <- counts.(p.Machine.headers.(0)) + 1) trace;
  check "all cells touched" true (Array.for_all (fun c -> c > 0) counts);
  (* Short-run bursty: one window concentrates. *)
  let w = Array.make 50 0 in
  for i = 0 to 1999 do
    w.(trace.(i).Machine.headers.(0)) <- w.(trace.(i).Machine.headers.(0)) + 1
  done;
  let top5 = Array.to_list w |> List.sort (fun a b -> compare b a) |> fun l -> List.filteri (fun i _ -> i < 5) l in
  check "window concentrated" true (List.fold_left ( + ) 0 top5 > 2000 * 6 / 10)

let test_flows_structure () =
  let pkts = Tracegen.flows ~seed:4 ~n_packets:5000 ~k:4 ~concurrency:16 () in
  check_int "count" 5000 (Array.length pkts);
  (* Per-flow seqnos are 0,1,2,... in arrival order. *)
  let next = Hashtbl.create 64 in
  Array.iter
    (fun (p : Tracegen.flow_packet) ->
      let expect = try Hashtbl.find next p.Tracegen.flow with Not_found -> 0 in
      check_int "seqno contiguous" expect p.Tracegen.seqno;
      Hashtbl.replace next p.Tracegen.flow (expect + 1))
    pkts;
  (* 5-tuple constant within a flow. *)
  let tuple = Hashtbl.create 64 in
  Array.iter
    (fun (p : Tracegen.flow_packet) ->
      let t = (p.Tracegen.src, p.Tracegen.dst, p.Tracegen.sport, p.Tracegen.dport) in
      match Hashtbl.find_opt tuple p.Tracegen.flow with
      | None -> Hashtbl.add tuple p.Tracegen.flow t
      | Some t' -> check "tuple stable" true (t = t'))
    pkts

let test_flows_bimodal_sizes () =
  let pkts = Tracegen.flows ~seed:5 ~n_packets:2000 ~k:4 ~concurrency:16 () in
  Array.iter
    (fun (p : Tracegen.flow_packet) ->
      check "mode size" true (p.Tracegen.bytes = 200 || p.Tracegen.bytes = 1400))
    pkts

let test_flows_arrival_rate () =
  let pkts = Tracegen.flows ~seed:6 ~n_packets:2000 ~k:4 ~concurrency:16 () in
  let total_bytes = Array.fold_left (fun acc p -> acc + p.Tracegen.bytes) 0 pkts in
  let span = pkts.(1999).Tracegen.time - pkts.(0).Tracegen.time in
  (* line rate: 64 * k bytes per cycle *)
  let expected = total_bytes / (64 * 4) in
  check "byte-rate paced" true (abs (span - expected) < expected / 10)

let test_headers_of_flows () =
  let pkts = Tracegen.flows ~seed:7 ~n_packets:100 ~k:2 ~concurrency:16 () in
  let trace = Tracegen.headers_of_flows pkts ~fill:(fun p -> [| p.Tracegen.flow |]) in
  Array.iteri
    (fun i input ->
      check_int "time copied" pkts.(i).Tracegen.time input.Machine.time;
      check_int "header filled" pkts.(i).Tracegen.flow input.Machine.headers.(0))
    trace

let test_datamining () =
  let module D = Mp5_workload.Datamining in
  check "heavier tail than web search" true
    (D.mean_flow_size () > Websearch.mean_flow_size ());
  let rng = Rng.create 9 in
  let small = ref 0 in
  for _ = 1 to 2000 do
    let s = D.sample_flow_size rng in
    check "positive and bounded" true (s > 0 && s <= 1_000_000_000);
    if s <= 2000 then incr small
  done;
  (* ~70% of flows are at most 2 KB. *)
  check "mostly tiny flows" true
    (abs_float ((float_of_int !small /. 2000.0) -. 0.70) < 0.05);
  check "at least one packet" true (D.sample_flow_packets rng ~mean_pkt_bytes:800.0 >= 1)

let test_websearch () =
  check "mean in published ballpark" true
    (let m = Websearch.mean_flow_size () in
     m > 1_000_000.0 && m < 3_000_000.0);
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let s = Websearch.sample_flow_size rng in
    check "positive and bounded" true (s > 0 && s <= 20_000_000)
  done;
  let p = Websearch.sample_flow_packets rng ~mean_pkt_bytes:800.0 in
  check "at least one packet" true (p >= 1)

let test_trace_io_roundtrip () =
  let pkts = Tracegen.flows ~seed:9 ~n_packets:200 ~k:2 ~concurrency:8 () in
  let trace = Tracegen.headers_of_flows pkts ~fill:(fun p -> [| p.Tracegen.src; p.Tracegen.bytes |]) in
  match Mp5_workload.Trace_io.of_string (Mp5_workload.Trace_io.to_string trace) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      check_int "length" (Array.length trace) (Array.length back);
      Array.iteri
        (fun i p ->
          check_int "time" trace.(i).Machine.time p.Machine.time;
          check_int "port" trace.(i).Machine.port p.Machine.port;
          check "headers" true (trace.(i).Machine.headers = p.Machine.headers))
        back

let test_trace_io_parsing () =
  (match Mp5_workload.Trace_io.of_string "# comment\n0 1 5 6\n\n1 0 7 8\n" with
  | Ok t ->
      check_int "two packets" 2 (Array.length t);
      check_int "field" 6 t.(0).Machine.headers.(1)
  | Error e -> Alcotest.fail e);
  (match Mp5_workload.Trace_io.of_string "0 1 5\n0 1 5 6\n" with
  | Error e ->
      check "arity error positioned at byte 6" true
        (String.length e >= 6 && String.sub e 0 6 = "byte 6");
      check "arity error carries line 2" true
        (let re = "(line 2)" in
         let rec has i =
           i + String.length re <= String.length e
           && (String.sub e i (String.length re) = re || has (i + 1))
         in
         has 0)
  | Ok _ -> Alcotest.fail "expected arity error");
  (match Mp5_workload.Trace_io.of_string "0 x 5\n" with
  | Error e ->
      check "integer error positioned at byte 0" true
        (String.length e >= 6 && String.sub e 0 6 = "byte 0")
  | Ok _ -> Alcotest.fail "expected integer error");
  match Mp5_workload.Trace_io.of_string "# only a comment\n\n" with
  | Error e -> check "empty trace rejected" true (e = "no packets in trace")
  | Ok _ -> Alcotest.fail "expected empty-trace error"

(* The reader sizes its packet array from a first pass over the lines:
   blank, whitespace-only and comment lines at the end (and between
   packets, indented or not, with a final line lacking its newline)
   must not leave slots behind. *)
let test_trace_io_trailing_blank_lines () =
  let text = "# header\n0 1 5\n  \t\n1 0 6\n   # indented comment\n2 2 7\n\n\r\n# tail\n  \n#" in
  match Mp5_workload.Trace_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok t ->
      check_int "three packets" 3 (Array.length t);
      check "last packet is the last data line" true
        (t.(2).Machine.time = 2 && t.(2).Machine.headers = [| 7 |])

(* --- scanner equivalence ---

   The trace readers as they were before the in-place scanner: every
   line through [String.trim], [split_on_char], [List.filter] and
   [int_of_string].  That pipeline *is* the grammar, so the scanner is
   held to it on generated and mutated input: same packets, and errors
   byte for byte. *)

let ref_tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "") |> List.map int_of_string

let ref_of_string s =
  let len = String.length s in
  let packets = ref [] in
  let arity = ref (-1) in
  let error = ref None in
  let pos = ref 0 in
  let lineno = ref 0 in
  while !error = None && !pos < len do
    incr lineno;
    let start = !pos in
    let nl = match String.index_from_opt s start '\n' with Some i -> i | None -> len in
    pos := nl + 1;
    let line = String.trim (String.sub s start (nl - start)) in
    if line <> "" && line.[0] <> '#' then begin
      let err fmt =
        Printf.ksprintf
          (fun msg -> error := Some (Printf.sprintf "byte %d (line %d): %s" start !lineno msg))
          fmt
      in
      match ref_tokens line with
      | exception Failure _ -> err "not an integer"
      | time :: port :: fields ->
          let n = List.length fields in
          if !arity = -1 then arity := n;
          if n <> !arity then err "%d fields, expected %d (truncated line?)" n !arity
          else packets := { Machine.time; port; headers = Array.of_list fields } :: !packets
      | _ -> err "need at least time and port"
    end
  done;
  match !error with
  | Some e -> Error e
  | None ->
      if !packets = [] then Error "no packets in trace"
      else Ok (Array.of_list (List.rev !packets))

(* Drains the reference stream: the packets pulled before the first
   error, and that error. *)
let ref_stream ~path =
  let ic = open_in_bin path in
  let prefix = path ^ ": " in
  let pos = ref 0 and lineno = ref 0 and arity = ref (-1) and last_time = ref min_int in
  let packets = ref [] and error = ref None in
  let fail at fmt =
    Printf.ksprintf
      (fun msg -> error := Some (Printf.sprintf "%sbyte %d (line %d): %s" prefix at !lineno msg))
      fmt
  in
  (try
     while !error = None do
       let raw = input_line ic in
       incr lineno;
       let start = !pos in
       pos := !pos + String.length raw + 1;
       let line = String.trim raw in
       if line <> "" && line.[0] <> '#' then
         match ref_tokens line with
         | exception Failure _ -> fail start "not an integer"
         | time :: port :: fields ->
             let n = List.length fields in
             if !arity = -1 then arity := n;
             if n <> !arity then fail start "%d fields, expected %d (truncated line?)" n !arity
             else if time < !last_time then
               fail start
                 "arrival time %d before previous packet's %d (streamed traces must be time-sorted)"
                 time !last_time
             else begin
               last_time := time;
               packets := { Machine.time; port; headers = Array.of_list fields } :: !packets
             end
         | _ -> fail start "need at least time and port"
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !packets, !error)

let new_stream ~path =
  match Mp5_workload.Trace_io.stream ~path with
  | Error e -> Alcotest.failf "open %s: %s" path e
  | Ok src ->
      let packets = ref [] and error = ref None in
      (try
         let rec drain () =
           match Mp5_workload.Packet_source.next src with
           | Some p ->
               packets := p :: !packets;
               drain ()
           | None -> ()
         in
         drain ()
       with Mp5_workload.Packet_source.Error e -> error := Some e);
      (List.rev !packets, !error)

let scanner_specials =
  [|
    "+5"; "0x1f"; "0b1"; "0o7"; "1_000"; "-0"; "-"; "--1"; "007"; "0u7"; "1e3"; "x"; "#";
    "999999999999999999"; "-999999999999999999"; "1000000000000000000"; "-1000000000000000000";
    string_of_int max_int; string_of_int min_int; "4611686018427387904"; "-4611686018427387905";
    "99999999999999999999999";
  |]

let scanner_blanks = [| " "; "  "; "\t"; "\r"; "\012" |]

(* A few lines of mostly well-formed trace (times rising, one arity),
   salted with special tokens, odd separators and blanks, short or long
   lines, comments after leading blanks, and blank lines. *)
let gen_trace st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let arity = Random.State.int st 4 in
  let line i =
    match Random.State.int st 12 with
    | 0 -> ""
    | 1 -> pick scanner_blanks
    | 2 -> pick scanner_blanks ^ "# comment " ^ string_of_int i
    | _ ->
        let n = if Random.State.int st 8 = 0 then Random.State.int st 5 else arity + 2 in
        let tok j =
          if Random.State.int st 15 = 0 then pick scanner_specials
          else if j = 0 then string_of_int (i - Random.State.int st 2)
          else string_of_int (Random.State.int st 3000 - 1000)
        in
        let sep () = if Random.State.int st 10 = 0 then pick scanner_blanks else " " in
        let edge () = if Random.State.int st 4 = 0 then pick scanner_blanks else "" in
        edge () ^ String.concat "" (List.init n (fun j -> (if j > 0 then sep () else "") ^ tok j))
        ^ edge ()
  in
  let lines = List.init (1 + Random.State.int st 8) line in
  String.concat "\n" lines ^ if Random.State.bool st then "\n" else ""

(* Byte flips and truncations of one valid trace file. *)
let mutate st valid =
  let b = Bytes.of_string valid in
  if Random.State.bool st then String.sub valid 0 (Random.State.int st (String.length valid + 1))
  else begin
    for _ = 0 to Random.State.int st 3 do
      Bytes.set b (Random.State.int st (Bytes.length b)) (Char.chr (Random.State.int st 256))
    done;
    Bytes.to_string b
  end

let test_scanner_equivalence () =
  let st = Random.State.make [| 2022 |] in
  let valid =
    let pkts = Tracegen.flows ~seed:5 ~n_packets:60 ~k:2 ~concurrency:8 () in
    Mp5_workload.Trace_io.to_string
      (Tracegen.headers_of_flows pkts ~fill:(fun p ->
           [| p.Tracegen.src; p.Tracegen.bytes; -p.Tracegen.flow |]))
  in
  let path = Filename.temp_file "mp5-scan" ".trace" in
  let fixed =
    [ ""; "\n"; "0 1"; "0 1\n"; " \t\r\012"; "\r\n0 1 2\r\n1 1 3\r\n"; "  # c\n\t#d\n0 0";
      "0 0 -\n"; "0\t0\n"; "0 0\012\n"; "5 0\n4 0\n" ]
  in
  let cases =
    fixed
    @ List.init 1_500 (fun _ -> gen_trace st)
    @ List.init 500 (fun _ -> mutate st valid)
  in
  List.iteri
    (fun i text ->
      let got =
        try Mp5_workload.Trace_io.of_string text
        with e -> Alcotest.failf "case %d: of_string raised %s" i (Printexc.to_string e)
      in
      if got <> ref_of_string text then Alcotest.failf "case %d: of_string differs on %S" i text;
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let got =
        try new_stream ~path
        with e -> Alcotest.failf "case %d: stream raised %s" i (Printexc.to_string e)
      in
      if got <> ref_stream ~path then Alcotest.failf "case %d: stream differs on %S" i text)
    cases;
  Sys.remove path

(* --- the cursor ---------------------------------------------------- *)

module Psource = Mp5_workload.Packet_source

(* Every packet of a source read through the cursor, each copied out of
   the buffer before the source advances past it. *)
let drain_cursor s =
  let acc = ref [] in
  while Psource.ready s do
    acc :=
      { Machine.time = Psource.time s; port = Psource.port s; headers = Array.copy (Psource.headers s) }
      :: !acc;
    Psource.advance s
  done;
  List.rev !acc

let drain_next s = List.of_seq (Seq.of_dispenser (fun () -> Psource.next s))

(* The cursor, the [next] adapter and the materialized array (and the
   cursor over that array) see one packet sequence. *)
let same_sequence what mk array =
  let cursor = drain_cursor (mk ()) in
  check (what ^ ": cursor = next") true (cursor = drain_next (mk ()));
  check (what ^ ": cursor = array") true (cursor = Array.to_list array);
  check (what ^ ": cursor over the array") true (drain_cursor (Psource.of_array array) = cursor);
  check_int (what ^ ": length") (Array.length array) (List.length cursor)

let test_cursor_tracegen () =
  List.iter
    (fun (what, pattern) ->
      (* Five fields, three of them indices, so the bursty pattern's
         hashes see several fields. *)
      let spec =
        { (spec ~n:1500 ~pattern ()) with Tracegen.n_fields = 5; index_fields = [ 0; 2; 4 ] }
      in
      same_sequence what (fun () -> Tracegen.sensitivity_source spec) (Tracegen.sensitivity spec))
    [
      ("uniform", Tracegen.Uniform);
      ("skewed", Tracegen.Skewed);
      ("skewed-rotating", Tracegen.Skewed_rotating 200);
      ("uniform-bursty", Tracegen.Uniform_bursty 300);
    ]

let test_cursor_traffic () =
  let topo = Mp5_fabric.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  let spec =
    {
      (Mp5_fabric.Traffic.default_spec topo) with
      Mp5_fabric.Traffic.n_packets = 1000;
      n_fields = 4;
      index_fields = [ 1; 2 ];
      seed = 5;
    }
  in
  let mk () = Mp5_fabric.Traffic.source spec in
  same_sequence "traffic" mk (Array.of_list (drain_next (mk ())))

(* The buffer is read only and stays valid until the next fill: an
   array source hands out each input's own header array. *)
let test_cursor_contract () =
  let a =
    [| { Machine.time = 0; port = 1; headers = [| 7; 8 |] }; { Machine.time = 2; port = 3; headers = [| 9 |] } |]
  in
  let s = Psource.of_array a in
  check "ready twice keeps the packet" true (Psource.ready s && Psource.ready s && Psource.time s = 0);
  check "the input's own headers" true (Psource.headers s == a.(0).Machine.headers);
  Psource.advance s;
  check_int "consumed" 1 (Psource.consumed s);
  check "second" true (Psource.ready s && Psource.port s = 3 && Psource.headers s = [| 9 |]);
  Psource.advance s;
  check "exhausted" false (Psource.ready s);
  check_int "last time" 2 (Psource.last_time s);
  match Psource.advance s with
  | () -> Alcotest.fail "advance past the end"
  | exception Invalid_argument _ -> ()

(* An ingress source against a queue: pushes of 0-9 headers, some read
   out of a wrapped ring through its mask, interleaved with admissions,
   so the ring wraps, grows while wrapped and empties.  [pending] and
   [iter_pending] see what the queue holds. *)
let test_ingress_ring () =
  let rng = Rng.create 12 in
  let s = Psource.ingress () in
  let q = Queue.create () in
  let src = Array.init 16 (fun i -> 100 + i) in
  for step = 1 to 5000 do
    if Rng.int rng 3 > 0 && Queue.length q < 200 then begin
      let n = Rng.int rng 10 and off = Rng.int rng 16 in
      let port = Rng.int rng 4 in
      Psource.push s ~time:step ~port src ~off ~mask:15 ~n;
      Queue.push
        { Machine.time = step; port; headers = Array.init n (fun j -> src.((off + j) land 15)) }
        q
    end
    else begin
      let want = Queue.take_opt q in
      match (want, Psource.ready s) with
      | None, false -> ()
      | Some w, true ->
          let got =
            { Machine.time = Psource.time s; port = Psource.port s; headers = Array.copy (Psource.headers s) }
          in
          if got <> w then Alcotest.failf "step %d: the ring's head differs" step;
          Psource.advance s
      | _ -> Alcotest.failf "step %d: ready disagrees with the queue" step
    end;
    check_int "pending" (Queue.length q) (Psource.pending s);
    if step mod 97 = 0 then begin
      let seen = ref [] in
      Psource.iter_pending s (fun i -> seen := i :: !seen);
      check "iter_pending" true (List.rev !seen = List.of_seq (Queue.to_seq q))
    end
  done

let () =
  Alcotest.run "workload"
    [
      ( "sensitivity traces",
        [
          Alcotest.test_case "line rate 64B" `Quick test_line_rate_64b;
          Alcotest.test_case "larger packets slower" `Quick test_larger_packets_slower;
          Alcotest.test_case "monotone times" `Quick test_times_monotone;
          Alcotest.test_case "indices in range" `Quick test_index_fields_in_range;
          Alcotest.test_case "skew concentration" `Quick test_skew_concentration;
          Alcotest.test_case "rotating skew" `Quick test_rotating_skew_moves;
          Alcotest.test_case "bursty uniform" `Quick test_bursty_uniform_long_run;
        ] );
      ( "flows",
        [
          Alcotest.test_case "structure" `Quick test_flows_structure;
          Alcotest.test_case "bimodal sizes" `Quick test_flows_bimodal_sizes;
          Alcotest.test_case "arrival pacing" `Quick test_flows_arrival_rate;
          Alcotest.test_case "headers adapter" `Quick test_headers_of_flows;
          Alcotest.test_case "web-search distribution" `Quick test_websearch;
          Alcotest.test_case "data-mining distribution" `Quick test_datamining;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "Tracegen: cursor = next = array" `Quick test_cursor_tracegen;
          Alcotest.test_case "Traffic: cursor = next = array" `Quick test_cursor_traffic;
          Alcotest.test_case "buffer contract" `Quick test_cursor_contract;
          Alcotest.test_case "ingress ring = a queue" `Quick test_ingress_ring;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "round trip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "parsing" `Quick test_trace_io_parsing;
          Alcotest.test_case "scanner matches the split pipeline" `Quick test_scanner_equivalence;
          Alcotest.test_case "trailing blank and comment lines" `Quick
            test_trace_io_trailing_blank_lines;
        ] );
    ]
