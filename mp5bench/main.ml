(* Layered benchmark driver for the MP5 reproduction.

     main.exe --workload NAME --seconds S [--seed N] [--trace 0|1] [--out DIR]

   Runs one workload as a closed loop of back-to-back ops for S seconds
   (BENCHMARK.json pins S as run_seconds),
   checks every op against its oracle, and prints one JSON object as the
   last line of stdout: the end-to-end metrics (--trace 0), or the
   per-layer metrics of a traced run (--trace 1), which also writes a
   Perfetto-loadable span trace and a self-time table to DIR.  See
   README.md in this directory for the metric table and the rationale. *)

module W = Workloads
module Json = Mp5_obs.Json
module Prof = Mp5_obs.Prof
module Stats = Mp5_util.Stats

let workloads = [ "switch-linerate"; "apps-verify"; "fabric-checkpointed" ]

(* Every per-layer metric, in output order.  A layer the workload does
   not exercise reads 0. *)
let per_layer_names =
  [
    "domino.lex_us"; "domino.parse_us"; "domino.typecheck_us"; "domino.flatten_us";
    "domino.codegen_us"; "transform.us"; "routing.compile_us"; "kernel.lower_us";
    "tracegen.ns_per_pkt"; "tracegen.words_per_pkt"; "traffic.ns_per_pkt";
    "trace_io.parse_mb_per_s"; "trace_io.words_per_byte"; "sim.ns_per_pkt";
    "sim.words_per_pkt"; "sim.promoted_words_per_pkt"; "sim.cycles_per_pkt"; "sim.loop_fast";
    "sim.phase.deliver_pct"; "sim.phase.apply_pct"; "sim.phase.pop_pct"; "sim.phase.exec_pct";
    "sim.phase.movement_pct"; "sim.phase.sweep_pct"; "sim.phase.source_pct";
    "sim.phase.remap_pct"; "golden.ns_per_pkt"; "golden.words_per_pkt"; "equiv.ns_per_pkt";
    "obs.attached_pct"; "monitor.checks_per_kcycle"; "sim.max_queue"; "sim.blocked_slot_frac";
    "sim.remap_moves"; "sim.xbar_cross_frac"; "sim.phantom_per_pkt"; "fabric.ns_per_hop";
    "fabric.words_per_pkt"; "fabric.hops_per_pkt"; "fabric.hop_p99_cycles"; "snapshot.bytes";
    "snapshot.roundtrip_us"; "gc.major_collections_per_op"; "trace.overhead_pct";
    "trace.unattributed_pct"; "check.fail_frac"; "sim.drop_frac"; "host.calib_ms";
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_us" || name = "transform.us" then "us"
  else if ends "_ms" then "ms"
  else if ends "ns_per_pkt" then "ns/pkt"
  else if ends "ns_per_hop" then "ns/hop"
  else if ends "words_per_pkt" then "words/pkt"
  else if ends "words_per_byte" then "words/B"
  else if ends "mb_per_s" then "MB/s"
  else if ends "_pct" then "%"
  else if ends "cycles_per_pkt" then "cycles/pkt"
  else if ends "_cycles" then "cycles"
  else if ends "per_kcycle" then "1/kcycle"
  else if ends "per_op" then "1/op"
  else if name = "snapshot.bytes" then "B"
  else if name = "fabric.hops_per_pkt" then "hops/pkt"
  else if name = "sim.phantom_per_pkt" then "1/pkt"
  else if ends "_frac" then "ratio"
  else "count"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Per-phase front-end cost of the workload's programs, in us: the
   median of [reps] compiles per phase, summed over programs. *)
let front_end programs =
  let reps = 21 in
  let us f = W.median_ns ~reps f /. 1e3 in
  let phases =
    List.map
      (fun (src, pad_to_stages) ->
        let open Mp5_domino in
        let ast = Parser.parse src in
        let env = Typecheck.check ast in
        let pvsm = Flatten.pvsm env in
        let limits = Mp5_banzai.Capability.default in
        let config = Codegen.lower limits pvsm in
        let prog = Mp5_core.Transform.transform ~pad_to_stages config in
        [
          ("domino.lex_us", us (fun () -> Lexer.tokenize src));
          ("domino.parse_us", us (fun () -> Parser.parse src));
          ("domino.typecheck_us", us (fun () -> Typecheck.check ast));
          ("domino.flatten_us", us (fun () -> Flatten.pvsm env));
          ("domino.codegen_us", us (fun () -> Codegen.lower limits pvsm));
          ("transform.us", us (fun () -> Mp5_core.Transform.transform ~pad_to_stages config));
          ("kernel.lower_us", us (fun () -> Mp5_core.Kernel.create ~compiled:true prog));
        ])
      programs
  in
  match phases with
  | [] -> []
  | first :: rest ->
      List.map
        (fun (name, v) -> (name, List.fold_left (fun acc p -> acc +. List.assoc name p) v rest))
        first

type tally = {
  mutable ops : int;
  mutable ns : int;
  mutable pkts : int;
  mutable words : float;
  mutable majors : int;
  mutable round_ms : float list;  (** raw op times of the round in progress *)
  mutable times_ms : float list;  (** op times of settled rounds, scaled *)
}

let tally () =
  { ops = 0; ns = 0; pkts = 0; words = 0.; majors = 0; round_ms = []; times_ms = [] }

(* Ends a round: its op times join [times_ms], multiplied by [k]. *)
let settle t k =
  t.times_ms <- List.rev_append (List.map (fun ms -> ms *. k) t.round_ms) t.times_ms;
  t.round_ms <- []

(* Raw packets per second over all timed ops, for comparing the traced
   and untraced rounds of one run. *)
let rate t = if t.ns = 0 then 0. else float_of_int t.pkts /. (float_of_int t.ns /. 1e9)

(* Host-speed calibration.  On a shared virtual machine, neighbours slow
   every op of a run by up to 2x for seconds to minutes at a time.  A
   fixed kernel, memory-bound and allocating like the simulator, is
   timed between rounds of ops, and the wall-clock metrics are reported
   for a host on which the kernel takes [calib_ref_ms].  Each op's time
   is scaled by [calib_ref_ms] / (the mean of the kernel times just
   before and just after its round), so a slow phase of the host is
   divided out where it happens and does not land in the tail
   percentiles; set-up time is scaled by the median kernel time of the
   run.  The kernel is part of the benchmark, never of the program, so
   a change to the program moves the scaled metrics exactly as it moves
   the raw ones. *)
let calib_ref_ms = 4.0

(* Outside the OCaml heap, so that [top_heap_mb] stays the program's. *)
let calib_words =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  Bigarray.Array1.fill a 0;
  a

let calibrate () =
  let a = calib_words in
  let n = Bigarray.Array1.dim a in
  let st = ref 12345 and acc = ref [] in
  for i = 1 to 200_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = !st land (n - 1) in
    a.{j} <- a.{j} + i;
    if i land 7 = 0 then acc := (i, j) :: (if i land 4095 = 0 then [] else !acc)
  done;
  ignore (Sys.opaque_identity !acc)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let out = ref "mp5bench-out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, " timed closed-loop duration (required)");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics (default 0)");
      ("--out", Arg.Set_string out, " directory for traces and span files (default mp5bench-out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seconds S [--seed N] [--trace 0|1] [--out DIR]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("mp5bench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "mp5bench: --seconds must be given and positive, and --trace 0 or 1";
    exit 2
  end;
  mkdir_p !out;
  let traced = !trace = 1 in
  let w =
    match !workload with
    | "switch-linerate" -> W.switch_linerate ~seed:!seed
    | "apps-verify" -> W.apps_verify ~seed:!seed ~dir:!out
    | _ -> W.fabric_checkpointed ~seed:!seed
  in
  (* The set-up calls are timed between rounds across the whole timed
     loop, not in one burst before it, so they see the host's slow and
     fast phases in the same mix as the ops; their mean moves in
     proportion to that mix. *)
  let setup_ns = ref 0 and setups = ref 0 and calib_ms = ref [] in
  let time_calibration () =
    let t0 = W.now () in
    calibrate ();
    float_of_int (W.now () - t0) /. 1e6
  in
  let between_rounds () =
    for _ = 1 to 4 do
      let t0 = W.now () in
      w.W.setup ();
      setup_ns := !setup_ns + (W.now () - t0);
      incr setups
    done;
    let ms = time_calibration () in
    calib_ms := ms :: !calib_ms;
    ms
  in
  (* The closed loop.  Round 0 is an untimed warm-up; in a traced run,
     untraced and traced rounds alternate, so the tracing overhead is
     measured under the same conditions. *)
  let spans = if traced then Some (Span.create ()) else None in
  let failed = Hashtbl.create 8 in
  let plain = tally () and with_spans = tally () in
  let run_op tally rec_ i =
    Option.iter (fun s -> Span.set_op s i) rec_;
    let q0 = (Gc.quick_stat ()).Gc.major_collections in
    let g0 = Gc.counters () in
    let t0 = W.now () in
    let r = try Ok (Span.with_ rec_ "op" (fun () -> w.W.op rec_ i)) with e -> Error e in
    let t1 = W.now () in
    let g1 = Gc.counters () in
    let q1 = (Gc.quick_stat ()).Gc.major_collections in
    match r with
    | Error e ->
        prerr_endline (Printf.sprintf "mp5bench: op %d raised %s" i (Printexc.to_string e));
        Hashtbl.replace failed i ()
    | Ok (pkts, check) -> (
        if not (try check () with _ -> false) then Hashtbl.replace failed i ();
        match tally with
        | None -> ()
        | Some t ->
            t.ops <- t.ops + 1;
            t.ns <- t.ns + (t1 - t0);
            t.pkts <- t.pkts + pkts;
            t.words <- t.words +. Span.alloc_of g1 -. Span.alloc_of g0;
            t.majors <- t.majors + (q1 - q0);
            t.round_ms <- (float_of_int (t1 - t0) /. 1e6) :: t.round_ms)
  in
  let next = ref 0 in
  let round tally rec_ =
    for _ = 1 to w.W.round do
      run_op tally rec_ !next;
      incr next
    done
  in
  round None None;
  let before = ref (time_calibration ()) in
  let deadline = W.now () + (!seconds * 1_000_000_000) in
  let rounds = ref 0 in
  while W.now () < deadline || (traced && with_spans.ops = 0) do
    let t, rec_ = if traced && !rounds mod 2 = 1 then (with_spans, spans) else (plain, None) in
    round (Some t) rec_;
    let after = between_rounds () in
    settle t (2. *. calib_ref_ms /. (!before +. after));
    before := after;
    incr rounds
  done;
  let calib_ms = W.median !calib_ms in
  let scale = calib_ref_ms /. calib_ms in
  let setup_s = float_of_int !setup_ns /. float_of_int (max 1 !setups) /. 1e9 in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let bad, model = w.W.finish () in
  List.iter (fun i -> Hashtbl.replace failed i ()) bad;
  let attempted = !next and n_failed = Hashtbl.length failed in
  let times = Array.of_list plain.times_ms in
  let p90 = Stats.percentile times 90. in
  Printf.eprintf "mp5bench: %s seed %d: %d ops attempted, %d failed, %d timed (%d beyond p90)\n"
    !workload !seed attempted n_failed plain.ops
    (Array.fold_left (fun acc t -> if t > p90 then acc + 1 else acc) 0 times);
  let metrics =
    if not traced then
      [
        ("pkts_per_s", float_of_int plain.pkts /. (Array.fold_left ( +. ) 0. times /. 1e3), "1/s");
        ("op_ms_p50", Stats.percentile times 50., "ms");
        ("op_ms_p90", p90, "ms");
        ("setup_s", setup_s *. scale, "s");
        ("alloc_words_per_pkt", plain.words /. float_of_int (max 1 plain.pkts), "words/pkt");
        ("top_heap_mb", top_heap_mb, "MB");
        ("sim_tput", model.W.tput, "ratio");
        ("sim_lat_p99_cycles", model.W.lat_p99, "cycles");
        ("deliver_frac", model.W.deliver_frac, "ratio");
        ("pass_frac", 1. -. (float_of_int n_failed /. float_of_int attempted), "ratio");
      ]
    else begin
      let s = Option.get spans in
      let layers = Span.layers s in
      let op_layer = Span.find layers "op" in
      let unattributed =
        match op_layer with
        | Some l when l.Span.total_ns > 0 ->
            100. *. float_of_int l.Span.self_ns /. float_of_int l.Span.total_ns
        | _ -> 0.
      in
      let measured =
        front_end w.W.programs
        @ w.W.layers ~traced_pkts:with_spans.pkts layers
        @ [
            ("sim.loop_fast", if w.W.loop_fast then 1. else 0.);
            ("gc.major_collections_per_op", float_of_int plain.majors /. float_of_int (max 1 plain.ops));
            ("trace.overhead_pct", 100. *. ((rate plain /. rate with_spans) -. 1.));
            ("trace.unattributed_pct", unattributed);
            ("check.fail_frac", float_of_int n_failed /. float_of_int attempted);
            ("sim.drop_frac", 1. -. model.W.deliver_frac);
            ("host.calib_ms", calib_ms);
          ]
      in
      let base = Printf.sprintf "%s/%s-seed%d" !out !workload !seed in
      let table = Span.table layers ~root:"op" in
      prerr_string table;
      Out_channel.with_open_text (base ^ ".selftime.txt") (fun oc -> output_string oc table);
      Out_channel.with_open_text (base ^ ".trace.json") (fun oc -> output_string oc (Span.chrome s));
      List.map
        (fun name ->
          (name, Option.value ~default:0. (List.assoc_opt name measured), unit_of name))
        per_layer_names
    end
  in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (n_failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int n_failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)
