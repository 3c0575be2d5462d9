(* Checkpoint/resume property tests.

   For 100 random Domino programs (lib/fuzz/progen), a streamed run is
   suspended at a pseudo-random cycle via [cycle_budget], serialized to
   an mp5-snap/1 snapshot, and resumed — possibly through several more
   suspend/resume chunks, each against a fresh source whose consumed
   prefix must replay under the input digest.  The final summary
   (counters, merged store, exit/access digests) must equal the
   uninterrupted run's exactly: checkpointing must be invisible.

   A third of the seeds run under an active fault plan (pipeline
   down/up, probabilistic crossbar drop/duplication — the RNG cursor
   crosses the snapshot), half with metrics attached (the counters ride
   the snapshot and must come back equal), a fifth with the runtime
   invariant monitor.

   Damaged snapshots — truncated, bit-flipped, version-bumped, padded —
   must be rejected with a positioned [Corrupt] error, never applied;
   well-formed snapshots resumed against the wrong program, trace or
   instrumentation must be rejected as [Mismatch]. *)

module Sim = Mp5_core.Sim
module Store = Mp5_banzai.Store
module Psource = Mp5_workload.Packet_source
module Progen = Mp5_fuzz.Progen
open Mp5_domino

let limits = Progen.limits
let n_seeds = 100
let n_packets = 200

(* A copy of a snapshot string: equal bytes, another string, so a
   resume of it never finds the suspended switch or fabric parked. *)
let copy s = Bytes.to_string (Bytes.of_string s)

(* Bytes allocated so far, counted as the bench harness counts words:
   OCaml 5.1's [Gc.allocated_bytes] misses part of the minor heap. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  float_of_int (Sys.word_size / 8) *. (Gc.minor_words () +. major -. promoted)

let prog_for seed =
  let src = Progen.generate seed in
  match Compile.compile ~limits src with
  | Ok t -> (src, Mp5_core.Transform.transform ~limits t.Compile.config)
  | Error e ->
      Alcotest.failf "seed %d: generated program failed to compile:\n%s\n%a" seed src
        Compile.pp_error e

let plan_for seed k =
  let src =
    Printf.sprintf
      "seed %d; down @30 pipe=%d; up @90 pipe=%d; xbar-drop @10..120 p=0.05; xbar-dup \
       @10..120 p=0.03"
      (7000 + seed) (1 mod k) (1 mod k)
  in
  match Mp5_fault.Fault.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "seed %d: bad fault plan: %s" seed e

let metrics_for prog k =
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  Mp5_obs.Metrics.create ~stages ~k

let completed seed = function
  | Sim.Completed s -> s
  | Sim.Suspended _ -> Alcotest.failf "seed %d: run suspended without a budget" seed

(* One seed: uninterrupted vs chunked-through-snapshots. *)
let run_seed seed =
  let src, prog = prog_for seed in
  let k = 2 + (seed mod 3) in
  let trace = Progen.trace ~seed ~k ~n:n_packets in
  let params = Sim.default_params ~k in
  let fault = if seed mod 3 = 0 then Some (plan_for seed k) else None in
  let with_metrics = seed mod 2 = 0 in
  let with_monitor = seed mod 5 = 1 in
  let monitor () = if with_monitor then Some (Mp5_fault.Monitor.create ()) else None in
  let straight_metrics = if with_metrics then Some (metrics_for prog k) else None in
  let straight =
    completed seed
      (Sim.run_source ?metrics:straight_metrics ?fault ?monitor:(monitor ()) params prog
         (Psource.of_array trace))
  in
  (* Suspend somewhere inside the run (or past its end for the largest
     budgets — then the chunk completes and resume is never needed,
     which is itself a valid degenerate case). *)
  let budget = 5 + (seed * 13 mod 160) in
  (* Drained twice, writing the same bytes at every suspension: each
     resume handed a copy of the previous leg's string decodes into a
     new machine (the crash-recovery path), and handed the very string
     it recycles the suspended one. *)
  let chunked ~copy_snaps =
    let chunk_metrics = if with_metrics then Some (metrics_for prog k) else None in
    let snaps = ref [] in
    let last_metrics = ref chunk_metrics in
    let rec go = function
      | Sim.Completed s -> s
      | Sim.Suspended snap -> (
          snaps := snap :: !snaps;
          if List.length !snaps > 200 then Alcotest.failf "seed %d: over 200 legs" seed;
          (* Every chunk resumes against a *fresh* source: the consumed
             prefix is replayed and checked against the snapshot's input
             digest each time. *)
          let m = if with_metrics then Some (metrics_for prog k) else None in
          last_metrics := m;
          match
            Sim.resume ?metrics:m ?monitor:(monitor ()) ~cycle_budget:budget
              ~snapshot:(if copy_snaps then copy snap else snap)
              prog (Psource.of_array trace)
          with
          | Ok o -> go o
          | Error (Sim.Corrupt msg) ->
              Alcotest.failf "seed %d: fresh snapshot rejected as corrupt: %s\n%s" seed msg src
          | Error (Sim.Mismatch msg) ->
              Alcotest.failf "seed %d: fresh snapshot rejected as mismatch: %s\n%s" seed msg src)
    in
    let chunked =
      go
        (Sim.run_source ?metrics:chunk_metrics ?fault ?monitor:(monitor ()) ~cycle_budget:budget
           params prog (Psource.of_array trace))
    in
    let how = if copy_snaps then "new machines" else "recycled" in
    if not (Sim.summary_equal straight chunked) then
      Alcotest.failf
        "seed %d (k=%d, budget=%d, %d chunks, %s%s%s): chunked resume diverges from the \
         uninterrupted run on:\n\
         %s"
        seed k budget (List.length !snaps + 1) how
        (if fault <> None then ", faulted" else "")
        (if with_metrics then ", metered" else "")
        src;
    (match (straight_metrics, !last_metrics) with
    | Some a, Some b ->
        if not (Mp5_obs.Metrics.equal a b) then
          Alcotest.failf "seed %d (%s): restored metrics diverge from the uninterrupted run's"
            seed how
    | _ -> ());
    !snaps
  in
  if chunked ~copy_snaps:true <> chunked ~copy_snaps:false then
    Alcotest.failf "seed %d: legs resumed into their machines write other bytes" seed

let test_resume_invisible () =
  for seed = 0 to n_seeds - 1 do
    run_seed seed
  done

(* --- rejection of damaged and mismatched snapshots --- *)

(* A real snapshot to damage: suspend a small run early. *)
let snapshot_fixture () =
  let _, prog = prog_for 3 in
  let trace = Progen.trace ~seed:3 ~k:2 ~n:n_packets in
  let params = Sim.default_params ~k:2 in
  match Sim.run_source ~cycle_budget:20 params prog (Psource.of_array trace) with
  | Sim.Suspended snap -> (prog, trace, params, snap)
  | Sim.Completed _ -> Alcotest.fail "fixture run completed inside a 20-cycle budget"

let resume_err snap prog trace =
  match Sim.resume ~snapshot:snap prog (Psource.of_array trace) with
  | Ok _ -> None
  | Error e -> Some e

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
  n = 0 || at 0

let check_corrupt what snap prog trace needle =
  match resume_err snap prog trace with
  | Some (Sim.Corrupt msg) ->
      let has_pos =
        (* positioned: every corruption message names a byte offset *)
        String.length msg >= 5 && String.sub msg 0 5 = "byte "
      in
      if not has_pos then Alcotest.failf "%s: message not positioned: %s" what msg;
      if not (contains msg needle) then
        Alcotest.failf "%s: expected %S in: %s" what needle msg
  | Some (Sim.Mismatch msg) -> Alcotest.failf "%s: rejected as mismatch, not corrupt: %s" what msg
  | None -> Alcotest.failf "%s: damaged snapshot was accepted" what

let test_rejects_damage () =
  let prog, trace, _params, snap = snapshot_fixture () in
  (* sanity: the pristine snapshot resumes fine *)
  (match Sim.resume ~snapshot:snap prog (Psource.of_array trace) with
  | Ok (Sim.Completed _) -> ()
  | Ok (Sim.Suspended _) -> Alcotest.fail "pristine resume suspended without a budget"
  | Error (Sim.Corrupt m) | Error (Sim.Mismatch m) ->
      Alcotest.failf "pristine snapshot rejected: %s" m);
  check_corrupt "truncated" (String.sub snap 0 (String.length snap / 2)) prog trace
    "truncated";
  check_corrupt "trailing garbage" (snap ^ "xx") prog trace "trailing";
  (let b = Bytes.of_string snap in
   let mid = String.length snap / 2 in
   Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
   check_corrupt "bit flip" (Bytes.to_string b) prog trace "checksum");
  (let bumped = "mp5-snap/2" ^ String.sub snap 10 (String.length snap - 10) in
   check_corrupt "version bump" bumped prog trace "version");
  check_corrupt "empty" "" prog trace "magic";
  (* Truncation landing exactly on a section boundary passes the framing
     only if the length header agrees — cut the payload *and* rewrite
     nothing, so the checksum catches it wherever the cut lands. *)
  for cut = 1 to 16 do
    let len = String.length snap - cut in
    match resume_err (String.sub snap 0 len) prog trace with
    | Some (Sim.Corrupt _) -> ()
    | Some (Sim.Mismatch m) -> Alcotest.failf "cut %d: mismatch, want corrupt: %s" cut m
    | None -> Alcotest.failf "cut %d: truncated snapshot accepted" cut
  done

let test_rejects_mismatch () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let expect what needle = function
    | Some (Sim.Mismatch msg) ->
        if not (contains msg needle) then
          Alcotest.failf "%s: expected %S in: %s" what needle msg
    | Some (Sim.Corrupt msg) -> Alcotest.failf "%s: corrupt, want mismatch: %s" what msg
    | None -> Alcotest.failf "%s: mismatched resume accepted" what
  in
  (* different program *)
  let _, other_prog = prog_for 4 in
  expect "wrong program" "different program" (resume_err snap other_prog trace);
  (* different trace: same shape, different contents *)
  let other_trace = Progen.trace ~seed:77 ~k:2 ~n:n_packets in
  expect "wrong trace" "does not replay" (resume_err snap prog other_trace);
  (* source shorter than the snapshot's cursor *)
  let short = Array.sub trace 0 5 in
  expect "short source" "ended after" (resume_err snap prog short);
  (* metrics attached on resume, but the snapshot carries none *)
  let stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let m = Mp5_obs.Metrics.create ~stages ~k:2 in
  expect "unexpected metrics" "no metrics"
    (match Sim.resume ~metrics:m ~snapshot:snap prog (Psource.of_array trace) with
    | Ok _ -> None
    | Error e -> Some e);
  (* a partially consumed source that is not at the snapshot's cursor *)
  let s = Psource.of_array trace in
  ignore (Psource.next s : Mp5_banzai.Machine.input option);
  expect "misaligned source" "already consumed"
    (match Sim.resume ~snapshot:snap prog s with Ok _ -> None | Error e -> Some e)

(* --- torn-write recovery through the rotation chain ---

   Write two real checkpoints through [Binio.write_rotated] (so [path]
   holds the newest and [path.1] the previous), then damage the newest
   file every way a crashed writer could leave it — truncated at the
   framing edges, at positions spread across every section, at random
   offsets, bit-flipped, emptied — and require [load_latest_valid] to
   fall back to [path.1] and the resumed run to finish bit-identical to
   the uninterrupted one. *)

module Binio = Mp5_util.Binio

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mp5-torn-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o700;
    d

let write_raw path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* A run long enough to emit several checkpoints, plus its uninterrupted
   summary. *)
let checkpoint_fixture () =
  let _, prog = prog_for 5 in
  let trace = Progen.trace ~seed:5 ~k:2 ~n:n_packets in
  let params = Sim.default_params ~k:2 in
  let snaps = ref [] in
  let straight =
    completed 5
      (Sim.run_source ~checkpoint_every:20
         ~on_checkpoint:(fun ~cycle:_ snap -> snaps := snap :: !snaps)
         params prog (Psource.of_array trace))
  in
  match List.rev !snaps with
  | a :: b :: _ -> (prog, trace, straight, a, b)
  | _ -> Alcotest.fail "fixture run emitted fewer than two checkpoints"

let test_rotation_chain () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "s.snap" in
  Binio.write_rotated ~path ~keep:2 "one";
  Binio.write_rotated ~path ~keep:2 "two";
  Binio.write_rotated ~path ~keep:2 "three";
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Alcotest.(check string) "newest in path" "three" (read path);
  Alcotest.(check string) "previous in path.1" "two" (read (path ^ ".1"));
  Alcotest.(check bool) "depth capped at keep" false (Sys.file_exists (path ^ ".2"));
  Binio.remove_slots ~path ~keep:2;
  Alcotest.(check bool) "slots removed" false
    (Sys.file_exists path || Sys.file_exists (path ^ ".1"))

let test_torn_fallback () =
  let prog, trace, straight, older, newest = checkpoint_fixture () in
  let dir = fresh_dir () in
  let path = Filename.concat dir "s.snap" in
  let magic = Sim.snapshot_magic in
  (* The damage sites: the framing edges (magic line, length, checksum),
     25 positions spread evenly across the file (crossing every payload
     section), and 16 seeded-random offsets. *)
  let nl = String.index newest '\n' in
  let len = String.length newest in
  let edges = [ 1; nl; nl + 1; nl + 9; nl + 17 ] in
  let spread = List.init 25 (fun i -> len * (i + 1) / 26) in
  let st = Random.State.make [| 0x746f726e |] in
  let random = List.init 16 (fun _ -> 1 + Random.State.int st (len - 1)) in
  let check_fallback what damaged =
    (* Rebuild the chain: older in path.1, the damaged newest in path. *)
    Binio.remove_slots ~path ~keep:2;
    Binio.write_rotated ~path ~keep:2 older;
    Binio.rotate ~path ~keep:2;
    write_raw path damaged;
    (match Binio.load_latest_valid ~magic ~path ~keep:2 with
    | Ok (slot, contents) ->
        if slot <> path ^ ".1" then
          Alcotest.failf "%s: picked %s instead of falling back" what slot;
        if contents <> older then Alcotest.failf "%s: fallback returned wrong contents" what
    | Error e -> Alcotest.failf "%s: no fallback found: %s" what e);
    (* And the fallback snapshot must still finish the run bit-identical
       to the uninterrupted one. *)
    match Sim.resume ~snapshot:older prog (Psource.of_array trace) with
    | Ok (Sim.Completed s) ->
        if not (Sim.summary_equal straight s) then
          Alcotest.failf "%s: resume from fallback diverged" what
    | Ok (Sim.Suspended _) -> Alcotest.failf "%s: fallback resume suspended" what
    | Error (Sim.Corrupt m) | Error (Sim.Mismatch m) ->
        Alcotest.failf "%s: fallback snapshot rejected: %s" what m
  in
  List.iter
    (fun cut -> check_fallback (Printf.sprintf "truncate@%d" cut) (String.sub newest 0 cut))
    (edges @ spread @ random);
  List.iter
    (fun pos ->
      let b = Bytes.of_string newest in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      check_fallback (Printf.sprintf "bitflip@%d" pos) (Bytes.to_string b))
    (List.filteri (fun i _ -> i mod 2 = 0) (spread @ random));
  check_fallback "empty file" "";
  (* Both slots torn: recovery must report an error, not invent state. *)
  Binio.remove_slots ~path ~keep:2;
  write_raw path (String.sub newest 0 (len / 2));
  write_raw (path ^ ".1") (String.sub older 0 7);
  (match Binio.load_latest_valid ~magic ~path ~keep:2 with
  | Ok (slot, _) -> Alcotest.failf "both-torn chain accepted slot %s" slot
  | Error _ -> ());
  (* An intact newest slot wins without falling back. *)
  Binio.remove_slots ~path ~keep:2;
  Binio.write_rotated ~path ~keep:2 older;
  Binio.write_rotated ~path ~keep:2 newest;
  match Binio.load_latest_valid ~magic ~path ~keep:2 with
  | Ok (slot, contents) ->
      Alcotest.(check string) "newest slot wins" path slot;
      Alcotest.(check bool) "newest contents" true (contents = newest)
  | Error e -> Alcotest.failf "intact chain rejected: %s" e

(* --- fabric snapshots ("mp5-fab/1") ---

   A mid-flight fabric run — packets inside switch machines, queued at
   ingress adapters, and in flight on delay-carrying links — suspended
   by [cycle_budget], serialized, and resumed must finish bit-identical
   to the uninterrupted run ([Fabric.results_equal]: every counter,
   digest and histogram).  Damaged fabric snapshots are [Corrupt]; a
   snapshot resumed against a different topology, routing policy or
   program is [Mismatch]. *)

module Fabric = Mp5_fabric.Fabric
module Topology = Mp5_fabric.Topology
module Routing = Mp5_fabric.Routing

let fabric_fixture () =
  let _, prog = prog_for 13 in
  (* Trunk delay 2 keeps packets in flight on the spine links at almost
     any suspension cycle. *)
  let topo = Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1 ~delay:2 in
  let rng = Mp5_util.Rng.create 414 in
  let trace =
    Array.init 150 (fun i ->
        {
          Mp5_banzai.Machine.time = i / 2;
          port = Mp5_util.Rng.int rng 2;
          headers = Array.init 4 (fun _ -> Mp5_util.Rng.int rng 16 - 2);
        })
  in
  let dst (i : Mp5_banzai.Machine.input) = 1 - (i.Mp5_banzai.Machine.port mod 2) in
  let fp =
    {
      Fabric.fp_sim = Sim.default_params ~k:2;
      fp_topo = topo;
      fp_policy = Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  (prog, trace, dst, fp)

let fabric_snapshot () =
  let prog, trace, dst, fp = fabric_fixture () in
  match Fabric.run ~cycle_budget:12 ~dst fp prog (Psource.of_array trace) with
  | Fabric.Suspended snap -> (prog, trace, dst, fp, snap)
  | Fabric.Completed _ -> Alcotest.fail "budget 12 did not suspend the fabric run"

let fabric_completed = function
  | Fabric.Completed r -> r
  | Fabric.Suspended _ -> Alcotest.fail "fabric run suspended without a budget"

let expect_resumed what = function
  | Ok o -> o
  | Error (Sim.Corrupt m) -> Alcotest.failf "%s: corrupt: %s" what m
  | Error (Sim.Mismatch m) -> Alcotest.failf "%s: mismatch: %s" what m

(* Drain a suspended fabric to completion in [budget]-cycle legs, each
   resumed from the previous leg's string (or, with [~copy_snaps:true],
   a copy of it) against a fresh source (replayed-prefix path).  Returns
   the number of legs and the result. *)
let fabric_chain ?(copy_snaps = false) ?(budget = 30) (prog, trace, dst, fp) outcome =
  let rec chunks n = function
    | Fabric.Completed r -> (n, r)
    | Fabric.Suspended snap ->
        if n > 50 then Alcotest.fail "fabric resume chain does not terminate";
        let snapshot = if copy_snaps then copy snap else snap in
        chunks (n + 1)
          (expect_resumed (Printf.sprintf "chunk %d" n)
             (Fabric.resume ~cycle_budget:budget ~dst ~snapshot fp prog
                (Psource.of_array trace)))
  in
  chunks 0 outcome

let test_fabric_resume () =
  let prog, trace, dst, fp = fabric_fixture () in
  let straight =
    fabric_completed (Fabric.run ~dst fp prog (Psource.of_array trace))
  in
  (* Chunk the run through suspensions, once resuming each leg from the
     string the previous one returned (into its parked machines) and
     once from a copy (into new ones). *)
  List.iter
    (fun copy_snaps ->
      let first = Fabric.run ~cycle_budget:12 ~dst fp prog (Psource.of_array trace) in
      (match first with
      | Fabric.Suspended _ -> ()
      | Fabric.Completed _ -> Alcotest.fail "budget 12 did not suspend the fabric run");
      let n, chunked = fabric_chain ~copy_snaps (prog, trace, dst, fp) first in
      if n < 2 then Alcotest.failf "expected several suspensions, got %d" n;
      if not (Fabric.results_equal straight chunked) then
        Alcotest.failf "chunked fabric run diverges from the uninterrupted run (%s strings)"
          (if copy_snaps then "copied" else "recycled"))
    [ false; true ]

(* [Sim.node_restore ~into]: a node frame decoded into a retired node,
   whatever state that node was left in, gives the node a fresh decode
   gives.  One node of the §4.3 program on 16-cell register files is
   checkpointed at cycle 8, before it has touched every cell, and run
   on to cycle 120; the checkpoint is then restored fresh and into that
   node, and both are run to cycle 220 on the same inputs: the same
   exits, and the same bytes at every checkpoint.  Per-cell queues
   (Ideal) and full-FIFO drops included. *)
let test_node_restore_into () =
  let prog =
    (Mp5_core.Switch.create_exn (Mp5_apps.Sources.sensitivity_program ~stateful:4 ~reg_size:16))
      .Mp5_core.Switch.prog
  in
  let rng = Mp5_util.Rng.create 5 in
  let trace =
    Array.init 600 (fun i ->
        {
          Mp5_banzai.Machine.time = i / 3;
          port = Mp5_util.Rng.int rng 4;
          headers = Array.init 4 (fun _ -> Mp5_util.Rng.int rng 16);
        })
  in
  let encode nd = Mp5_util.Codec.encode ~magic:"node-test" (fun io -> Sim.node_encode io nd) in
  let restore ?into snap exits =
    let on_exit ~seq ~latency ~fields:_ ~off:_ = exits := (seq, latency) :: !exits in
    match Binio.of_string ~magic:"node-test" snap with
    | Error e -> Alcotest.failf "reframe: %s" e
    | Ok r -> (
        match
          Sim.node_restore ?into ~on_exit ~on_drop:(fun ~seq:_ -> ()) (Mp5_util.Codec.reader r) prog
        with
        | Ok nd -> nd
        | Error (Sim.Corrupt m | Sim.Mismatch m) -> Alcotest.failf "node restore: %s" m)
  in
  (* Step cycles [from, until), each cycle's arrivals injected first. *)
  let run nd ~from ~until =
    for t = from to until - 1 do
      Array.iter
        (fun (i : Mp5_banzai.Machine.input) ->
          if i.Mp5_banzai.Machine.time = t then ignore (Sim.node_inject nd i : int))
        trace;
      Sim.node_step nd ~now:t
    done
  in
  let d = Sim.default_params ~k:4 in
  List.iter
    (fun (what, params) ->
      let exits = ref [] in
      let on_exit ~seq ~latency ~fields:_ ~off:_ = exits := (seq, latency) :: !exits in
      let nd = Sim.node_create ~anchor:0 ~on_exit ~on_drop:(fun ~seq:_ -> ()) params prog in
      run nd ~from:0 ~until:8;
      let snap = encode nd in
      let pending = ref [] in
      Sim.node_iter_pending nd (fun i -> pending := i :: !pending);
      run nd ~from:8 ~until:120;
      if Sim.node_dropped nd = 0 && what = "tight-fifo" then
        Alcotest.failf "%s: the retired node dropped nothing" what;
      let resumed ?into () =
        let exits = ref [] in
        let nd = restore ?into snap exits in
        if encode nd <> snap then Alcotest.failf "%s: a restored node re-encodes differently" what;
        List.iter (fun i -> ignore (Sim.node_inject nd i : int)) (List.rev !pending);
        let snaps =
          List.map
            (fun (from, until) ->
              run nd ~from ~until;
              encode nd)
            [ (8, 9); (9, 100); (100, 220) ]
        in
        (snaps, List.rev !exits)
      in
      let fresh = resumed () in
      let recycled = resumed ~into:nd () in
      if fst fresh <> fst recycled then
        Alcotest.failf "%s: the node restored into a retired one writes different bytes" what;
      if snd fresh <> snd recycled then
        Alcotest.failf "%s: the node restored into a retired one exits differently" what)
    [
      ("mp5", d);
      ("ideal", { d with Sim.mode = Sim.Ideal });
      ("tight-fifo", { d with Sim.fifo_capacity = 1; adaptive_fifos = false });
    ]

(* A fabric snapshot is a fixed point of resume: a zero-budget resume
   decodes it and suspends at once, writing the same bytes, whether it
   decodes into the suspended fabric's machines (the string itself) or
   into new ones (a copy).  Every node frame carries its source's last
   arrival time, which a restored node must keep. *)
let test_fabric_fixed_point () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let again what snapshot =
    match
      expect_resumed what
        (Fabric.resume ~cycle_budget:0 ~dst ~snapshot fp prog (Psource.of_array trace))
    with
    | Fabric.Suspended s -> s
    | Fabric.Completed _ -> Alcotest.failf "%s: a zero-budget resume completed" what
  in
  let recycled = again "recycled" snap in
  if recycled <> snap then Alcotest.fail "recycled resume re-encodes different bytes";
  let fresh = again "fresh" (copy snap) in
  if fresh <> snap then Alcotest.fail "fresh resume re-encodes different bytes";
  (* and the re-encoded string resumes the same way in turn *)
  if again "second recycled" fresh <> snap then
    Alcotest.fail "second recycled resume re-encodes different bytes"

(* The suspended fabric is taken at most once: a string resumed twice
   drains to the straight result both times, the second time into new
   machines. *)
let test_fabric_take_once () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let fx = (prog, trace, dst, fp) in
  let straight = fabric_completed (Fabric.run ~dst fp prog (Psource.of_array trace)) in
  let resume_all what =
    let _, r =
      fabric_chain fx
        (expect_resumed what
           (Fabric.resume ~cycle_budget:30 ~dst ~snapshot:snap fp prog
              (Psource.of_array trace)))
    in
    if not (Fabric.results_equal straight r) then
      Alcotest.failf "%s resume of one string diverges from the straight run" what
  in
  resume_all "first";
  resume_all "second"

(* A resume that fails parks nothing: after each rejected resume, one of
   the good string drains to the straight result.  A corrupt copy and
   another program or topology release the parked fabric unused; a
   source that does not replay the snapshot's prefix is only found
   after every node was decoded into the parked machines. *)
let test_fabric_failed_resume () =
  let prog, trace, dst, fp = fabric_fixture () in
  let fx = (prog, trace, dst, fp) in
  let straight = fabric_completed (Fabric.run ~dst fp prog (Psource.of_array trace)) in
  let _, other_prog = prog_for 14 in
  let other_topo = Topology.line ~switches:4 ~hosts_per_sw:1 ~delay:2 in
  let other_trace = Array.map (fun i -> { i with Mp5_banzai.Machine.port = 1 }) trace in
  let flipped snap =
    let b = Bytes.of_string snap in
    let mid = String.length snap / 2 in
    Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
    Bytes.to_string b
  in
  let on_topo topo = { fp with Fabric.fp_topo = topo; fp_policy = Routing.shortest_paths topo } in
  let resume ?(fp = fp) ?(prog = prog) ?(trace = trace) snap =
    Fabric.resume ~dst ~snapshot:snap fp prog (Psource.of_array trace)
  in
  let failing =
    [
      ("corrupt copy", fun snap -> resume (flipped snap));
      ("other program", fun snap -> resume ~prog:other_prog snap);
      ("other topology", fun snap -> resume ~fp:(on_topo other_topo) snap);
      (* the digests match, the parked fabric is not decoded into *)
      ( "an equal topology built again, and another source",
        fun snap ->
          resume
            ~fp:(on_topo (Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1 ~delay:2))
            ~trace:other_trace snap );
      ("other source", fun snap -> resume ~trace:other_trace snap);
    ]
  in
  List.iter
    (fun (what, bad) ->
      match Fabric.run ~cycle_budget:12 ~dst fp prog (Psource.of_array trace) with
      | Fabric.Completed _ -> Alcotest.fail "budget 12 did not suspend the fabric run"
      | Fabric.Suspended snap ->
          (match bad snap with
          | Ok _ -> Alcotest.failf "%s: resume accepted" what
          | Error _ -> ());
          let _, r = fabric_chain fx (expect_resumed what (resume snap)) in
          if not (Fabric.results_equal straight r) then
            Alcotest.failf "%s: the good string's drain diverges from the straight run" what)
    failing

(* Drain a suspended switch in 20-cycle legs, each resumed from the
   previous leg's string, into its machine. *)
let rec switch_chain prog trace ?(legs = 0) = function
  | Sim.Completed s -> s
  | Sim.Suspended snap ->
      if legs > 200 then Alcotest.fail "switch resume chain does not terminate";
      switch_chain prog trace ~legs:(legs + 1)
        (expect_resumed "switch leg"
           (Sim.resume ~cycle_budget:20 ~snapshot:snap prog (Psource.of_array trace)))

(* The very string and a copy drain as a straight run does (that they
   write the same bytes at every boundary, [run_seed] checks on every
   program).  Reuse shows in the bytes a zero-budget resume (decode and
   encode) allocates: into the suspended machine, well under half of
   what building a new one costs.  A suspended machine is taken at most
   once and a failed resume parks nothing: a second resume of one
   string, and one after a rejected resume, allocate a new machine and
   still agree.  Each case starts from a fresh fixture, whose machine is
   the one parked. *)
let test_switch_resume_into () =
  let prog, trace, params, _ = snapshot_fixture () in
  let straight = completed 3 (Sim.run_source params prog (Psource.of_array trace)) in
  let agrees what s =
    if not (Sim.summary_equal straight s) then Alcotest.failf "%s: diverges" what
  in
  let resume_bytes what ?(first = fun _ _ -> ()) snap_of =
    let prog, _, _, snap = snapshot_fixture () in
    first prog snap;
    let snap = snap_of snap and before = allocated_bytes () in
    let o = Sim.resume ~cycle_budget:0 ~snapshot:snap prog (Psource.of_array trace) in
    let bytes = allocated_bytes () -. before in
    agrees what (switch_chain prog trace (expect_resumed what o));
    bytes
  in
  let into = resume_bytes "into the suspended machine" Fun.id in
  let fresh = resume_bytes "from a copy" copy in
  if not (into < fresh /. 2.) then
    Alcotest.failf "a resume of the very string allocates %.0f bytes, a copy's %.0f" into fresh;
  let _, other_prog = prog_for 4 in
  let flip s = String.mapi (fun i c -> if i = 99 then Char.chr (Char.code c lxor 1) else c) s in
  let resume ~ok prog s =
    if Result.is_ok (Sim.resume ~snapshot:s prog (Psource.of_array trace)) <> ok then
      Alcotest.fail "first resume"
  in
  List.iter
    (fun (what, first) ->
      let bytes = resume_bytes what ~first Fun.id in
      if bytes < fresh /. 2. then
        Alcotest.failf "%s: allocates %.0f bytes, as a recycled machine does" what bytes)
    [
      ("a second resume", resume ~ok:true);
      ("after another program", fun _ s -> resume ~ok:false other_prog s);
      ("after a flipped byte", fun prog s -> resume ~ok:false prog (flip s));
    ]

(* Cadences are checked where the leg loop starts, for a run and a
   resume alike, and the error names the entry point called. *)
let test_rejects_bad_cadence () =
  let prog, trace, params, snap = snapshot_fixture () in
  let on_checkpoint ~cycle:_ _ = () and on_heartbeat ~cycle:_ = () in
  List.iter
    (fun (checkpoint_every, heartbeat_every, what) ->
      let src () = Psource.of_array trace in
      let raises entry f =
        let msg = entry ^ ": " ^ what ^ " must be positive" in
        Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
      in
      raises "Sim.run_source" (fun () ->
          Sim.run_source ~checkpoint_every ~on_checkpoint ~heartbeat_every ~on_heartbeat params
            prog (src ()));
      raises "Sim.resume" (fun () ->
          Sim.resume ~checkpoint_every ~on_checkpoint ~heartbeat_every ~on_heartbeat
            ~snapshot:snap prog (src ())))
    [ (0, 1, "checkpoint_every"); (5, 0, "heartbeat_every") ]

(* Snapshots carry no monitor state, and the monitor is a pure
   observer: a drain whose legs alternate monitored and bare writes, at
   every suspension, the bytes an all-monitored drain writes, then
   finishes equal to the straight run. *)
let test_fabric_alternating_monitors () =
  let prog, trace, dst, fp = fabric_fixture () in
  let straight = fabric_completed (Fabric.run ~dst fp prog (Psource.of_array trace)) in
  let monitor () = Mp5_fault.Monitor.create ~epoch:16 () in
  let leg_monitor n = if n mod 2 = 0 then Some (monitor ()) else None in
  let rec chunks n ~alt ~monitored =
    match (alt, monitored) with
    | Fabric.Completed a, Fabric.Completed m ->
        if not (Fabric.results_equal a m) then
          Alcotest.fail "alternating drain diverges from the all-monitored drain";
        (n, a)
    | Fabric.Suspended sa, Fabric.Suspended sm ->
        if n > 50 then Alcotest.fail "fabric resume chain does not terminate";
        if sa <> sm then Alcotest.failf "leg %d: snapshot bytes depend on the monitor" n;
        let resume ?monitor snap =
          match
            Fabric.resume ?monitor ~cycle_budget:30 ~dst ~snapshot:snap fp prog
              (Psource.of_array trace)
          with
          | Ok o -> o
          | Error (Sim.Corrupt m) -> Alcotest.failf "leg %d: corrupt: %s" n m
          | Error (Sim.Mismatch m) -> Alcotest.failf "leg %d: mismatch: %s" n m
        in
        chunks (n + 1)
          ~alt:(resume ?monitor:(leg_monitor (n + 1)) sa)
          ~monitored:(resume ~monitor:(monitor ()) sm)
    | _ -> Alcotest.failf "leg %d: the drains suspend at different points" n
  in
  let first monitor =
    Fabric.run ?monitor ~cycle_budget:12 ~dst fp prog (Psource.of_array trace)
  in
  let n, chunked =
    chunks 0 ~alt:(first (leg_monitor 0)) ~monitored:(first (Some (monitor ())))
  in
  if n < 2 then Alcotest.failf "expected several suspensions, got %d" n;
  if not (Fabric.results_equal straight chunked) then
    Alcotest.fail "alternating fabric drain diverges from the straight run"

let test_fabric_rejects () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let err ?(fp = fp) ?(prog = prog) snap =
    match Fabric.resume ~dst ~snapshot:snap fp prog (Psource.of_array trace) with
    | Ok _ -> None
    | Error e -> Some e
  in
  (* corrupt: bit flip, truncation, garbage magic *)
  (let b = Bytes.of_string snap in
   let mid = String.length snap / 2 in
   Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
   match err (Bytes.to_string b) with
   | Some (Sim.Corrupt msg) ->
       if not (contains msg "checksum") then Alcotest.failf "bit flip: %s" msg
   | Some (Sim.Mismatch msg) -> Alcotest.failf "bit flip: mismatch, want corrupt: %s" msg
   | None -> Alcotest.fail "bit-flipped fabric snapshot accepted");
  (match err (String.sub snap 0 (String.length snap / 3)) with
  | Some (Sim.Corrupt _) -> ()
  | _ -> Alcotest.fail "truncated fabric snapshot accepted");
  (match err "" with
  | Some (Sim.Corrupt _) -> ()
  | _ -> Alcotest.fail "empty fabric snapshot accepted");
  (* mismatch: a different topology, and a different program *)
  let other_topo = Topology.line ~switches:2 ~hosts_per_sw:1 ~delay:2 in
  let other_fp =
    { fp with Fabric.fp_topo = other_topo; fp_policy = Routing.shortest_paths other_topo }
  in
  (match err ~fp:other_fp snap with
  | Some (Sim.Mismatch msg) ->
      if not (contains msg "topology") then Alcotest.failf "wrong topology: %s" msg
  | Some (Sim.Corrupt msg) -> Alcotest.failf "wrong topology: corrupt, want mismatch: %s" msg
  | None -> Alcotest.fail "fabric snapshot accepted under a different topology");
  let _, other_prog = prog_for 4 in
  match err ~prog:other_prog snap with
  | Some (Sim.Mismatch _) -> ()
  | Some (Sim.Corrupt msg) -> Alcotest.failf "wrong program: corrupt, want mismatch: %s" msg
  | None -> Alcotest.fail "fabric snapshot accepted under a different program"

(* --- the wire format does not move ---

   MD5s of the two fixture snapshots as the format was first pinned.
   Any change to the writer, the framing or the nested node frames that
   alters a single byte breaks old snapshots on disk, so the encoders
   must reproduce them exactly. *)

let test_format_pinned () =
  let _, _, _, snap = snapshot_fixture () in
  let _, _, _, _, fsnap = fabric_snapshot () in
  Alcotest.(check (pair int string))
    "mp5-snap/1 fixture" (2544, "8a424b6eeae47ad60ce850b307cb35d3")
    (String.length snap, Digest.to_hex (Digest.string snap));
  Alcotest.(check (pair int string))
    "mp5-fab/1 fixture" (9536, "6a27c6380aeec039deabd9d0d9d0529f")
    (String.length fsnap, Digest.to_hex (Digest.string fsnap))

(* --- the checksum ---

   Standard FNV-1a-64 vectors, and the original closure-over-[String.iter]
   implementation kept as the oracle for random strings. *)

let checksum_oracle s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let test_checksum_vectors () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check int64) (Printf.sprintf "fnv1a64 %S" s) want (Binio.checksum s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let prop_checksum_oracle =
  QCheck.Test.make ~name:"checksum = String.iter FNV-1a oracle" ~count:500
    QCheck.(string_gen_of_size Gen.(0 -- 2000) Gen.char)
    (fun s -> Binio.checksum s = checksum_oracle s)

(* The two-lane kernel: each lane equals the oracle over its own range,
   for unaligned offsets, short lengths (0-17 cover every tail length
   on both sides of a word) and lanes of unequal length. *)
let prop_fnv2_oracle =
  let gen =
    QCheck.Gen.(
      let len = oneof [ int_range 0 17; int_range 0 300 ] in
      string_size ~gen:char (int_range 0 400) >>= fun s ->
      let n = String.length s in
      let range =
        len >>= fun l ->
        let l = min l n in
        int_range 0 (n - l) >|= fun off -> (off, l)
      in
      pair range range >|= fun (a, b) -> (s, a, b))
  in
  QCheck.Test.make ~name:"fnv2 lanes = String.iter FNV-1a oracle" ~count:1000
    (QCheck.make gen)
    (fun (s, (ao, al), (bo, bl)) ->
      let l = { Binio.ha = Binio.fnv_basis; hb = Binio.fnv_basis } in
      Binio.fnv2 l s ~a_off:ao ~a_len:al ~b_off:bo ~b_len:bl;
      l.Binio.ha = checksum_oracle (String.sub s ao al)
      && l.Binio.hb = checksum_oracle (String.sub s bo bl))

(* Frames nested two deep (and siblings around them) are sealed when the
   outer payload is: the bytes equal a build from separate writers, in
   which every frame is a [to_string] embedded with [w_string].  Each
   frame's body is [n] ints so lengths vary across word boundaries; the
   result must also read back, eagerly and under a deferred check. *)
let test_nested_sealing () =
  let ints w n seed = for i = 1 to n do Binio.w_int w ((seed * 1000003) + i) done in
  let tail w = Binio.w_bool w true; Binio.w_tag w 7 in
  (* shape: a0 [F1: b1 [F2: c2 [F3: d3] e2] f1] g0 [F4: h4] i0 *)
  let deferred sizes =
    Binio.to_string ~magic:"outer/1" (fun w ->
        ints w sizes.(0) 0;
        Binio.w_framed w ~magic:"frame-one" (fun w ->
            ints w sizes.(1) 1;
            Binio.w_framed w ~magic:"frame-two" (fun w ->
                ints w sizes.(2) 2;
                Binio.w_framed w ~magic:"frame-three" (fun w -> ints w sizes.(3) 3; tail w);
                ints w sizes.(4) 4);
            tail w);
        ints w sizes.(5) 5;
        Binio.w_framed w ~magic:"frame-four" (fun w -> ints w sizes.(6) 6);
        tail w)
  in
  let eager sizes =
    let framed ~magic body w = Binio.w_string w (Binio.to_string ~magic body) in
    Binio.to_string ~magic:"outer/1" (fun w ->
        ints w sizes.(0) 0;
        framed ~magic:"frame-one"
          (fun w ->
            ints w sizes.(1) 1;
            framed ~magic:"frame-two"
              (fun w ->
                ints w sizes.(2) 2;
                framed ~magic:"frame-three" (fun w -> ints w sizes.(3) 3; tail w) w;
                ints w sizes.(4) 4)
              w;
            tail w)
          w;
        ints w sizes.(5) 5;
        framed ~magic:"frame-four" (fun w -> ints w sizes.(6) 6) w;
        tail w)
  in
  let read_back sizes r =
    let skip r n = for _ = 1 to n do ignore (Binio.r_int r) done in
    let read_tail r =
      ignore (Binio.r_bool r);
      Binio.r_tag r ~expect:7 ~what:"tail";
      Alcotest.(check int) "window consumed" 0 (Binio.remaining r)
    in
    skip r sizes.(0);
    let f1 = Binio.r_framed r ~magic:"frame-one" in
    skip f1 sizes.(1);
    let f2 = Binio.r_framed f1 ~magic:"frame-two" in
    skip f2 sizes.(2);
    let f3 = Binio.r_framed f2 ~magic:"frame-three" in
    skip f3 sizes.(3);
    read_tail f3;
    skip f2 sizes.(4);
    Alcotest.(check int) "frame two consumed" 0 (Binio.remaining f2);
    read_tail f1;
    skip r sizes.(5);
    let f4 = Binio.r_framed r ~magic:"frame-four" in
    skip f4 sizes.(6);
    read_tail r
  in
  List.iter
    (fun sizes ->
      let d = deferred sizes and e = eager sizes in
      Alcotest.(check string)
        (Printf.sprintf "sizes %s" (String.concat "," (Array.to_list (Array.map string_of_int sizes))))
        (Digest.to_hex (Digest.string e)) (Digest.to_hex (Digest.string d));
      let ok = function Ok r -> r | Error e -> Alcotest.failf "read back: %s" e in
      read_back sizes (ok (Binio.of_string ~magic:"outer/1" d));
      let r = ok (Binio.of_string_deferred ~magic:"outer/1" d) in
      read_back sizes r;
      Alcotest.(check (result unit string)) "deferred check passes" (Ok ()) (Binio.verify r))
    [ [| 0; 0; 0; 0; 0; 0; 0 |]; [| 1; 2; 3; 5; 8; 13; 21 |]; [| 3; 0; 700; 1; 0; 2; 9000 |] ]

(* [to_string] runs its encoder twice, sizing and then writing; an
   encoder that does not write the same bytes both times is refused
   rather than leaving a short or overrun snapshot. *)
let test_unstable_encoder () =
  let unstable extra =
    let pass = ref 0 in
    fun w ->
      incr pass;
      Binio.w_int w 1;
      if !pass = 2 then extra w
  in
  List.iter
    (fun (what, extra) ->
      match Binio.to_string ~magic:"outer/1" (unstable extra) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("one more int", fun w -> Binio.w_int w 2);
      ("one more byte", fun w -> Binio.w_bool w true);
      ("one more array", fun w -> Binio.w_int_array w [| 1; 2 |]);
      ("a frame", fun w -> Binio.w_framed w ~magic:"f" (fun _ -> ()));
    ]

(* --- nested node frames inside mp5-fab/1 ---

   A node frame is [length:8 "mp5-snap/1\n" payload_len:8 checksum:8
   payload]; the fabric frame's own header is [magic '\n' len:8 sum:8]. *)

type node_frame = { nf_prefix : int; nf_len_at : int; nf_body : int; nf_end : int }

let find_from s sub from =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then None else if String.sub s i n = sub then Some i else at (i + 1)
  in
  at from

let node_frames snap =
  let rec go from acc =
    match find_from snap (Sim.snapshot_magic ^ "\n") from with
    | None -> List.rev acc
    | Some m ->
        let len_at = m + String.length Sim.snapshot_magic + 1 in
        let body = len_at + 16 in
        let nf_end = body + Int64.to_int (String.get_int64_le snap len_at) in
        go nf_end ({ nf_prefix = m - 8; nf_len_at = len_at; nf_body = body; nf_end } :: acc)
  in
  go 0 []

let reseal_node b nf =
  let body = Bytes.sub_string b nf.nf_body (nf.nf_end - nf.nf_body) in
  Bytes.set_int64_le b (nf.nf_len_at + 8) (Binio.checksum body)

let reseal_fabric b =
  let hdr = String.index (Bytes.to_string b) '\n' + 1 in
  let body = Bytes.sub_string b (hdr + 16) (Bytes.length b - hdr - 16) in
  Bytes.set_int64_le b (hdr + 8) (Binio.checksum body)

(* The N of the first "byte N" in an error message. *)
let byte_pos msg =
  match find_from msg "byte " 0 with
  | None -> None
  | Some i ->
      let j = ref (i + 5) in
      while !j < String.length msg && msg.[!j] >= '0' && msg.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub msg (i + 5) (!j - i - 5))

let fabric_corrupt_pos what (prog, trace, dst, fp) damaged =
  match Fabric.resume ~dst ~snapshot:damaged fp prog (Psource.of_array trace) with
  | Error (Sim.Corrupt msg) -> (
      match byte_pos msg with
      | Some pos -> (pos, msg)
      | None -> Alcotest.failf "%s: message not positioned: %s" what msg)
  | Error (Sim.Mismatch msg) -> Alcotest.failf "%s: mismatch, want corrupt: %s" what msg
  | Ok _ -> Alcotest.failf "%s: damaged fabric snapshot accepted" what

let test_node_error_absolute () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let frames = node_frames snap in
  if List.length frames <> Topology.n_switches fp.Fabric.fp_topo then
    Alcotest.failf "found %d node frames" (List.length frames);
  let nf = List.nth frames 1 in
  (* The first payload byte is the params section tag (1). *)
  let b = Bytes.of_string snap in
  Alcotest.(check char) "params tag" '\001' (Bytes.get b nf.nf_body);
  Bytes.set b nf.nf_body '\099';
  reseal_node b nf;
  reseal_fabric b;
  let pos, msg = fabric_corrupt_pos "node 1 tag" (prog, trace, dst, fp) (Bytes.to_string b) in
  if not (contains msg "bad section tag 99") then Alcotest.failf "node 1 tag: %s" msg;
  Alcotest.(check int) "absolute offset of the damaged tag" nf.nf_body pos

(* Which error a damaged fabric snapshot reports, when several apply:
   an unsealed change anywhere is the payload checksum at byte 10, even
   where decoding it would also fail (a topology digest that no longer
   matches, a node frame whose own checksum no longer matches); a node
   body resealed at the outer level only is that node frame's checksum,
   at the frame's length field.  No rejected resume reads its source. *)
let test_fabric_error_precedence () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let hdr = String.index snap '\n' + 1 in
  let payload = hdr + 16 in
  let resume_fresh what damaged =
    let src = Psource.of_array trace in
    let r = Fabric.resume ~dst ~snapshot:damaged fp prog src in
    Alcotest.(check int) (what ^ ": source untouched") 0 (Psource.consumed src);
    match r with
    | Error (Sim.Corrupt msg) -> msg
    | Error (Sim.Mismatch msg) -> Alcotest.failf "%s: mismatch, want corrupt: %s" what msg
    | Ok _ -> Alcotest.failf "%s: damaged fabric snapshot accepted" what
  in
  let flip b at = Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01)) in
  let outer = "byte 10: checksum mismatch (corrupt snapshot)" in
  Alcotest.(check int) "fabric length field" 10 hdr;
  (* the topology digest follows the header tag *)
  (let b = Bytes.of_string snap in
   flip b (payload + 1);
   Alcotest.(check string) "unsealed topology digest" outer
     (resume_fresh "topology digest" (Bytes.to_string b)));
  let nf2 = List.nth (node_frames snap) 2 in
  (let b = Bytes.of_string snap in
   flip b ((nf2.nf_body + nf2.nf_end) / 2);
   Alcotest.(check string) "unsealed node 2 body" outer
     (resume_fresh "node 2 body" (Bytes.to_string b)));
  (let b = Bytes.of_string snap in
   flip b ((nf2.nf_body + nf2.nf_end) / 2);
   reseal_fabric b;
   let msg = resume_fresh "node 2 body, outer resealed" (Bytes.to_string b) in
   if not (contains msg "checksum mismatch") then Alcotest.failf "node 2 resealed: %s" msg;
   Alcotest.(check (option int)) "node 2's own checksum, at its length field"
     (Some nf2.nf_len_at) (byte_pos msg));
  (* and a mismatch that passes every checksum leaves the source alone too *)
  let other_topo = Topology.line ~switches:4 ~hosts_per_sw:1 ~delay:2 in
  let src = Psource.of_array trace in
  (match
     Fabric.resume ~dst ~snapshot:snap
       { fp with Fabric.fp_topo = other_topo; fp_policy = Routing.shortest_paths other_topo }
       prog src
   with
  | Error (Sim.Mismatch _) -> ()
  | _ -> Alcotest.fail "other topology: want mismatch");
  Alcotest.(check int) "mismatch: source untouched" 0 (Psource.consumed src)

let test_nested_frame_bounded () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let nf = List.hd (node_frames snap) in
  let len = nf.nf_end - nf.nf_body in
  List.iter
    (fun forged ->
      let b = Bytes.of_string snap in
      Bytes.set_int64_le b nf.nf_len_at (Int64.of_int forged);
      reseal_node b { nf with nf_end = nf.nf_body + min len forged };
      reseal_fabric b;
      let what = Printf.sprintf "node 0 length %d (real %d)" forged len in
      let before = allocated_bytes () in
      let pos, msg = fabric_corrupt_pos what (prog, trace, dst, fp) (Bytes.to_string b) in
      let allocated = allocated_bytes () -. before in
      if pos < nf.nf_prefix || pos >= nf.nf_end then
        Alcotest.failf "%s: error at byte %d, outside node 0's frame [%d, %d): %s" what pos
          nf.nf_prefix nf.nf_end msg;
      if allocated > float_of_int (16 * String.length snap) then
        Alcotest.failf "%s: rejecting it allocated %.0f bytes" what allocated)
    [ len + 8; len + (1 lsl 30); max_int; len - 8 ]

(* A packet's fabric metadata names its destination host, which indexes
   the forwarding table when the packet exits a switch: a forged
   destination must be rejected when the snapshot is decoded, positioned
   at the field, not raise mid-run.  Node 0's frame is followed by its
   pending inputs (time, port, header count, headers), its meta count,
   then per meta (local seq, fabric seq, destination, ...). *)
let test_rejects_forged_meta_dst () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let nf = List.hd (node_frames snap) in
  let int_at p = Int64.to_int (String.get_int64_le snap p) in
  let rec skip_inputs p n =
    if n = 0 then p else skip_inputs (p + 24 + (8 * int_at (p + 16))) (n - 1)
  in
  let metas = skip_inputs (nf.nf_end + 8) (int_at nf.nf_end) in
  if int_at metas = 0 then Alcotest.fail "fixture node 0 holds no packet metadata";
  let at = metas + 24 in
  List.iter
    (fun v ->
      let b = Bytes.of_string snap in
      Bytes.set_int64_le b at (Int64.of_int v);
      reseal_fabric b;
      let what = Printf.sprintf "meta destination %d" v in
      let pos, msg = fabric_corrupt_pos what (prog, trace, dst, fp) (Bytes.to_string b) in
      if not (contains msg "destination host") then Alcotest.failf "%s: %s" what msg;
      Alcotest.(check int) (what ^ ": positioned at the field") at pos)
    [ -1; Topology.n_hosts fp.Fabric.fp_topo ]

(* A node's metadata keys must be exactly its live local seqs — its
   in-flight packets' and its pending ones', ascending.  A key far past
   them, a duplicate and a missing key are each rejected at decode,
   positioned at the key (or, for the missing one, at the count), and
   the far key is rejected before it sizes anything: the rejection
   allocates no more than a clean resume would. *)
let test_rejects_forged_meta_keys () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let int_at p = Int64.to_int (String.get_int64_le snap p) in
  let rec skip_inputs p n =
    if n = 0 then p else skip_inputs (p + 24 + (8 * int_at (p + 16))) (n - 1)
  in
  (* Each node frame is followed by its pending inputs, the metadata
     count, then per entry (key, fabric seq, destination, injection
     cycle, hops).  The node holding the most entries is forged. *)
  let metas =
    List.fold_left
      (fun best nf ->
        let m = skip_inputs (nf.nf_end + 8) (int_at nf.nf_end) in
        if int_at m > int_at best then m else best)
      (let nf = List.hd (node_frames snap) in
       skip_inputs (nf.nf_end + 8) (int_at nf.nf_end))
      (node_frames snap)
  in
  let n = int_at metas in
  if n < 2 then Alcotest.failf "the fixture's nodes hold at most %d packet metadata entries" n;
  let key j = metas + 8 + (40 * j) in
  let forged what ~at v =
    let b = Bytes.of_string snap in
    Bytes.set_int64_le b at (Int64.of_int v);
    reseal_fabric b;
    let before = allocated_bytes () in
    let pos, msg = fabric_corrupt_pos what (prog, trace, dst, fp) (Bytes.to_string b) in
    let allocated = allocated_bytes () -. before in
    if not (contains msg "metadata") then Alcotest.failf "%s: %s" what msg;
    Alcotest.(check int) (what ^ ": positioned") at pos;
    if allocated > float_of_int (16 * String.length snap) then
      Alcotest.failf "%s: rejecting it allocated %.0f bytes" what allocated
  in
  forged "a key far past the live seqs" ~at:(key 0) (1 lsl 40);
  forged "a duplicate key" ~at:(key 1) (int_at (key 0));
  forged "a missing key" ~at:metas (n - 1)

(* The live seqs the keys are checked against come from the node frame,
   which does not check them itself: an in-flight packet's seq forged
   far out (and its key with it, so the keys still match) or to another
   in-flight packet's is rejected at the node frame, before the metadata
   table is sized from it.  So is a window whose seqs the frame's
   admitted count, forged to match, does cover, but which leaves more
   free slots than a run could. *)
let test_rejects_forged_inflight_seq () =
  let prog, trace, dst, fp, snap = fabric_snapshot () in
  let int_at p = Int64.to_int (String.get_int64_le snap p) in
  let rec skip_inputs p n =
    if n = 0 then p else skip_inputs (p + 24 + (8 * int_at (p + 16))) (n - 1)
  in
  (* The node with the most packets in its machine: metadata entries
     past its pending inputs.  Its in-flight packets' keys come first. *)
  let nf, metas, n_machine =
    List.fold_left
      (fun ((_, _, best) as acc) nf ->
        let n_pending = int_at nf.nf_end in
        let metas = skip_inputs (nf.nf_end + 8) n_pending in
        if int_at metas - n_pending > best then (nf, metas, int_at metas - n_pending) else acc)
      (List.hd (node_frames snap), 0, 0)
      (node_frames snap)
  in
  if n_machine < 2 then
    Alcotest.failf "the fixture's machines hold at most %d packets" n_machine;
  let key j = metas + 8 + (40 * j) in
  let in_frame pred =
    List.filter pred (List.init (nf.nf_end - nf.nf_body - 8) (fun i -> nf.nf_body + i))
  in
  (* Pending phantom deliveries name their packet's seq, which the frame
     does check: the channel section (tag 11, count n, n entries of
     cycle, seq, stage, dest, ring, cell, then tag 12). *)
  let phantom_seqs =
    match
      in_frame (fun p ->
          snap.[p] = '\011'
          &&
          let n = int_at (p + 1) in
          n > 0 && n < 1000
          && p + 9 + (48 * n) < nf.nf_end
          && snap.[p + 9 + (48 * n)] = '\012')
    with
    | [ p ] -> List.init (int_at (p + 1)) (fun i -> int_at (p + 9 + (48 * i) + 8))
    | _ -> []
  in
  (* The newest in-flight packet no phantom names, and another one. *)
  let j =
    match
      List.find_opt
        (fun j -> not (List.mem (int_at (key j)) phantom_seqs))
        (List.init n_machine (fun i -> n_machine - 1 - i))
    with
    | Some j -> j
    | None -> Alcotest.fail "every in-flight packet has a phantom delivery pending"
  in
  let seq = int_at (key j) and other = int_at (key (if j = 0 then 1 else 0)) in
  (* Its slab entry: seq, arrival time, ECN byte, field array length. *)
  let n_fields = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.fields in
  let packet =
    match
      in_frame (fun p ->
          p + 25 <= nf.nf_end && int_at p = seq
          && (snap.[p + 16] = '\000' || snap.[p + 16] = '\001')
          && int_at (p + 17) = n_fields)
    with
    | [ p ] -> p
    | l -> Alcotest.failf "found %d packets with seq %d in the node frame" (List.length l) seq
  in
  (* The source section: after the ghost-seq counter (max_int: no fault
     plan), tag 4, admitted count, last arrival time, two digest words,
     then the fault section (tag 5, no plan) and tag 6. *)
  let admitted =
    match
      in_frame (fun p ->
          p >= nf.nf_body + 8
          && p + 36 <= nf.nf_end
          && int_at (p - 8) = max_int
          && snap.[p] = '\004' && int_at (p + 1) > seq && snap.[p + 33] = '\005'
          && snap.[p + 34] = '\000' && snap.[p + 35] = '\006')
    with
    | [ p ] -> p + 1
    | l -> Alcotest.failf "found %d source sections in the node frame" (List.length l)
  in
  let forge what edits ~at needle =
    let b = Bytes.of_string snap in
    List.iter (fun (p, v) -> Bytes.set_int64_le b p (Int64.of_int v)) edits;
    reseal_node b nf;
    reseal_fabric b;
    let before = allocated_bytes () in
    let pos, msg = fabric_corrupt_pos what (prog, trace, dst, fp) (Bytes.to_string b) in
    let allocated = allocated_bytes () -. before in
    if not (contains msg needle) then Alcotest.failf "%s: %s" what msg;
    Alcotest.(check int) (what ^ ": positioned") at pos;
    if allocated > float_of_int (16 * String.length snap) then
      Alcotest.failf "%s: rejecting it allocated %.0f bytes" what allocated
  in
  let far = 1 lsl 40 in
  forge "an in-flight seq far past the admitted count"
    [ (packet, far); (key j, far) ]
    ~at:nf.nf_prefix "in-flight packet seq";
  forge "an in-flight seq repeated" [ (packet, other); (key j, other) ] ~at:nf.nf_prefix
    "in-flight packet seq";
  forge "a window of free slots the admitted count covers"
    [ (packet, far); (key j, far); (admitted, far + 1) ]
    ~at:metas "free slots"

(* A pending phantom delivery whose destination pipeline does not exist
   must be rejected when the snapshot is decoded — positioned, and
   without raising — not when the resumed run drains it.  The channel
   section is found structurally: tag 11, a count n, n six-int entries
   (cycle, seq, stage, dest, ring, cell), then the doomed section's tag
   12 and int array, then tag 13. *)
let channel_section snap =
  let hdr = String.length Sim.snapshot_magic + 17 in
  let int_at p = Int64.to_int (String.get_int64_le snap p) in
  let fits p = p >= 0 && p < String.length snap in
  let is_channel p =
    fits (p + 9) && snap.[p] = '\011'
    &&
    let n = int_at (p + 1) in
    n > 0 && n < 1000
    &&
    let doomed = p + 9 + (48 * n) in
    fits (doomed + 9) && snap.[doomed] = '\012'
    &&
    let d = int_at (doomed + 1) in
    d >= 0 && d < 1000
    &&
    let watch = doomed + 9 + (8 * d) in
    fits watch && snap.[watch] = '\013'
  in
  let sites = List.filter is_channel (List.init (String.length snap - hdr) (fun i -> hdr + i)) in
  match sites with
  | [ p ] -> p
  | _ ->
      Alcotest.failf "expected one channel section with pending deliveries, found %d"
        (List.length sites)

let test_rejects_forged_delivery () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let hdr = String.length Sim.snapshot_magic + 17 in
  let p = channel_section snap in
  (* Overwrite one field of the first pending delivery (at, seq, stage,
     dest, ring, cell) and re-seal the checksum: the resume must fail
     with a [Corrupt] positioned at that field. *)
  let forge ~what ~field v needle =
    let b = Bytes.of_string snap in
    let at = p + 9 + (8 * field) in
    Bytes.set_int64_le b at (Int64.of_int v);
    Bytes.set_int64_le b (hdr - 8)
      (Binio.checksum (Bytes.sub_string b hdr (Bytes.length b - hdr)));
    let forged = Bytes.to_string b in
    check_corrupt what forged prog trace needle;
    match resume_err forged prog trace with
    | Some (Sim.Corrupt msg) ->
        let prefix = Printf.sprintf "byte %d:" at in
        Alcotest.(check string) (what ^ ": positioned at the field") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
    | _ -> Alcotest.failf "%s: forged delivery accepted" what
  in
  forge ~what:"forged delivery dest" ~field:3 99 "phantom delivery pipeline 99";
  (* a stage in range whose input has no queue: the program's stages
     without stateful accesses *)
  let n_stages = Array.length prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages in
  let stateful s =
    Array.exists (fun (a : Mp5_core.Transform.access) -> a.stage = s) prog.Mp5_core.Transform.accesses
  in
  match List.find_opt (fun s -> not (stateful s)) (List.init n_stages Fun.id) with
  | None -> Alcotest.fail "fixture program has no stateless stage"
  | Some s ->
      forge ~what:"forged delivery to a stateless stage" ~field:2 s
        (Printf.sprintf "phantom delivery to stateless stage %d" s)

(* Re-seal a machine snapshot's payload checksum after forging a field. *)
let reseal_snap b =
  let hdr = String.length Sim.snapshot_magic + 17 in
  Bytes.set_int64_le b (hdr - 8) (Binio.checksum (Bytes.sub_string b hdr (Bytes.length b - hdr)))

(* Forge the int at [at], re-seal, and require a [Corrupt] positioned at
   that int whose message holds [needle]. *)
let check_forged_int ~what snap prog trace ~at v needle =
  let b = Bytes.of_string snap in
  Bytes.set_int64_le b at (Int64.of_int v);
  reseal_snap b;
  let forged = Bytes.to_string b in
  check_corrupt what forged prog trace needle;
  match resume_err forged prog trace with
  | Some (Sim.Corrupt msg) ->
      let prefix = Printf.sprintf "byte %d:" at in
      Alcotest.(check string) (what ^ ": positioned at the field") prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  | _ -> Alcotest.failf "%s: forged snapshot accepted" what

(* Heavy-hitter at line rate on k = 4, suspended after 20 cycles: packets
   sit in the transfer buffers between stages. *)
let transfer_fixture () =
  let sw = Mp5_core.Switch.create_exn Mp5_apps.Sources.heavy_hitter in
  let prog = sw.Mp5_core.Switch.prog in
  let trace =
    Mp5_workload.Tracegen.sensitivity
      {
        Mp5_workload.Tracegen.n_packets = 400;
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
  match Sim.run_source ~cycle_budget:20 (Sim.default_params ~k:4) prog (Psource.of_array trace) with
  | Sim.Suspended snap -> (prog, trace, snap)
  | Sim.Completed _ -> Alcotest.fail "transfer fixture completed inside a 20-cycle budget"

let int_at snap p = Int64.to_int (String.get_int64_le snap p)

(* The transfer section, found structurally: tag 10, then per stage a
   count n and n (descriptor, packet) pairs, then the channel section's
   tag 11.  A packet is seq, arrival time, ECN byte, its field array,
   and per access three ints and two flag bytes.  Returns every
   descriptor as (stage, offset). *)
let transfer_descriptors prog snap =
  let config = prog.Mp5_core.Transform.config in
  let nf = Array.length config.Mp5_banzai.Config.fields in
  let na = Array.length prog.Mp5_core.Transform.accesses in
  let n_stages = Array.length config.Mp5_banzai.Config.stages in
  let entry = 8 + (25 + (8 * nf) + (26 * na)) in
  let len = String.length snap in
  let walk p =
    let rec go s q acc =
      if q + 8 > len then None
      else if s = n_stages then if snap.[q] = '\011' then Some (List.rev acc) else None
      else
        let n = int_at snap q in
        if n < 0 || n > 64 then None
        else
          go (s + 1) (q + 8 + (n * entry))
            (List.rev_append (List.init n (fun i -> (s, q + 8 + (i * entry)))) acc)
    in
    if snap.[p] = '\010' then go 0 (p + 1) [] else None
  in
  let hdr = String.length Sim.snapshot_magic + 17 in
  match List.filter_map walk (List.init (len - hdr - 1) (fun i -> hdr + i)) with
  | [ descs ] -> descs
  | found -> Alcotest.failf "expected one transfer section, found %d" (List.length found)

let test_rejects_forged_transfer () =
  let prog, trace, snap = transfer_fixture () in
  let descs = transfer_descriptors prog snap in
  if descs = [] then Alcotest.fail "transfer fixture holds no transfers";
  let _, at = List.hd descs in
  let desc = int_at snap at in
  let with_field ~shift v = desc land lnot (63 lsl shift) lor (v lsl shift) in
  check_forged_int ~what:"transfer destination 60" snap prog trace ~at (with_field ~shift:2 60)
    "transfer destination pipeline 60 out of range";
  check_forged_int ~what:"transfer source 60" snap prog trace ~at (with_field ~shift:8 60)
    "transfer source pipeline 60 out of range";
  check_forged_int ~what:"transfer tag 3" snap prog trace ~at (desc lor 3) "unknown tag";
  (* two stateless transfers into one slot *)
  let stateless = List.filter (fun (_, at) -> int_at snap at land 3 = 0) descs in
  (match
     List.find_map
       (fun (s, a) ->
         List.find_map (fun (s', b) -> if s' = s && b > a then Some (s, a, b) else None) stateless)
       stateless
   with
  | None -> Alcotest.fail "transfer fixture has no stage with two stateless transfers"
  | Some (s, a, b) ->
      let dest = (int_at snap a lsr 2) land 63 in
      let desc = int_at snap b in
      check_forged_int ~what:"two stateless transfers into one slot" snap prog trace ~at:b
        (desc land lnot (63 lsl 2) lor (dest lsl 2))
        (Printf.sprintf "second stateless transfer into stage %d pipe %d" s dest));
  (* a stateful transfer into a stage without input queues *)
  let stateful s =
    Array.exists (fun (a : Mp5_core.Transform.access) -> a.stage = s) prog.Mp5_core.Transform.accesses
  in
  match List.find_opt (fun (s, _) -> not (stateful s)) descs with
  | None -> Alcotest.fail "transfer fixture has no transfer into a stateless stage"
  | Some (s, at) ->
      let desc = int_at snap at in
      check_forged_int ~what:"stateful transfer into a stateless stage" snap prog trace ~at
        (desc land lnot 3 lor 1)
        (Printf.sprintf "stateful transfer into stateless stage %d" s)

(* An index map's per-cell pipeline indexes per-pipeline rows: a forged
   one is rejected at decode, positioned at the entry.  The section is
   tag 8, then per register three int arrays of its size, then tag 9. *)
let test_rejects_forged_index_map () =
  let prog, trace, snap = transfer_fixture () in
  let sizes =
    Array.map (fun (r : Mp5_banzai.Config.reg) -> r.Mp5_banzai.Config.size)
      prog.Mp5_core.Transform.config.Mp5_banzai.Config.regs
  in
  let len = String.length snap in
  let is_section p =
    snap.[p] = '\008'
    &&
    let q = ref (p + 1) and ok = ref true in
    Array.iter
      (fun size ->
        for _ = 1 to 3 do
          if !ok && !q + 8 <= len && int_at snap !q = size then q := !q + 8 + (8 * size)
          else ok := false
        done)
      sizes;
    !ok && !q < len && snap.[!q] = '\009'
  in
  let hdr = String.length Sim.snapshot_magic + 17 in
  match List.filter is_section (List.init (len - hdr - 1) (fun i -> hdr + i)) with
  | [ p ] ->
      check_forged_int ~what:"index map pipeline 4" snap prog trace ~at:(p + 9 + 16) 4
        "index map pipeline 4 out of range";
      check_forged_int ~what:"index map pipeline -1" snap prog trace ~at:(p + 9) (-1)
        "index map pipeline -1 out of range"
  | found -> Alcotest.failf "expected one index map section, found %d" (List.length found)

(* A pending delivery names its packet by seq; a restored machine finds
   the packet's slab slot through it.  A seq that is neither a packet in
   flight nor a dropped one's would park a phantom nobody inserts into,
   wedging its queue: the decode rejects it, positioned at the seq. *)
let test_rejects_orphan_delivery () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let at = channel_section snap + 9 + 8 in
  check_forged_int ~what:"delivery for an unknown seq" snap prog trace ~at (1 lsl 40)
    (Printf.sprintf "phantom delivery for seq %d, which is neither in flight nor dropped"
       (1 lsl 40))

(* The access log indexes one row per register by cell: a key outside
   the register file is rejected at decode, positioned at the key.  The
   digest section ends the snapshot: tag 14, the exit digest (two
   ints), a count n and n (key, hi, lo) triples, then tag 15. *)
let test_rejects_forged_access_key () =
  let prog, trace, snap = transfer_fixture () in
  let len = String.length snap in
  let section n = len - 1 - (25 + (24 * n)) in
  let n =
    match
      List.find_opt
        (fun n -> section n > 0 && snap.[section n] = '\014' && int_at snap (section n + 17) = n)
        (List.init 4096 (fun n -> n + 1))
    with
    | Some n -> n
    | None -> Alcotest.fail "fixture snapshot has no access-log entries"
  in
  let regs = prog.Mp5_core.Transform.config.Mp5_banzai.Config.regs in
  let size0 = regs.(0).Mp5_banzai.Config.size in
  let at = section n + 25 + (24 * (n - 1)) in
  let key = (Array.length regs lsl 32) lor 1 in
  check_forged_int ~what:"access log register past the file" snap prog trace ~at key
    (Printf.sprintf "access log key %d outside the register file" key);
  check_forged_int ~what:"access log cell past its register" snap prog trace ~at size0
    (Printf.sprintf "access log key %d outside the register file" size0);
  check_forged_int ~what:"negative access log key" snap prog trace ~at (-1)
    "access log key -1 outside the register file"

(* --- every field forged ---

   The codec lists each field a decode reads (offset, width, rule), so
   each field of both pinned fixtures is forged in turn to values in and
   out of every range, the enclosing node frame and then the payload
   resealed, and resumed.  Each case must end in [Ok], a [Corrupt]
   naming a byte offset, or a [Mismatch], never an exception.  Its
   decode (a zero-budget resume: decode and re-encode) must allocate
   under 16x the snapshot, so no forged value sizes memory, and a case
   that decodes must then run [forge_budget] cycles without raising. *)

module Codec = Mp5_util.Codec

let forge_values = [ -1; 0; 7; 1 lsl 16; 1 lsl 40; max_int ]
let forge_budget = 300

(* The fields of [snap], as the decode [resume ~cycle_budget:0 s] reads
   them. *)
let walk_fields what resume snap =
  match Codec.walk (fun () -> resume ~cycle_budget:0 (copy snap)) with
  | Ok _, fields -> fields
  | Error (Sim.Corrupt m | Sim.Mismatch m), _ -> Alcotest.failf "%s: pristine: %s" what m

(* Forge every field of [snap] to every value; returns the cases run. *)
let forge_every_field what resume snap =
  let fields = walk_fields what resume snap in
  if fields = [] then Alcotest.failf "%s: the decode noted no fields" what;
  let cases = ref 0 in
  List.iter
    (fun (f : Codec.field) ->
      List.iter
        (fun v ->
          let forged = Codec.forge snap fields f v in
          let case =
            Printf.sprintf "%s: %s at byte %d forged to %d" what f.Codec.what f.Codec.pos v
          in
          let outcome cycle_budget =
            match resume ~cycle_budget forged with
            | Ok _ -> true
            | Error (Sim.Mismatch _) -> false
            | Error (Sim.Corrupt msg) ->
                if byte_pos msg = None then Alcotest.failf "%s: not positioned: %s" case msg;
                false
            | exception e -> Alcotest.failf "%s: raised %s" case (Printexc.to_string e)
          in
          let before = allocated_bytes () in
          let decoded = outcome 0 in
          let allocated = allocated_bytes () -. before in
          if allocated > float_of_int (16 * String.length snap) then
            Alcotest.failf "%s: its decode allocated %.0f bytes" case allocated;
          if decoded then ignore (outcome forge_budget : bool);
          incr cases)
        forge_values)
    fields;
  !cases

let test_forge_every_field () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let resume ~cycle_budget snapshot =
    Sim.resume ~cycle_budget ~snapshot prog (Psource.of_array trace)
  in
  ignore (forge_every_field "mp5-snap/1" resume snap : int);
  let prog, trace, dst, fp, fsnap = fabric_snapshot () in
  let resume ~cycle_budget snapshot =
    Fabric.resume ~cycle_budget ~dst ~snapshot fp prog (Psource.of_array trace)
  in
  ignore (forge_every_field "mp5-fab/1" resume fsnap : int)

(* A queued packet's access cell indexes its register unchecked, and
   its destination every per-pipeline row: in the pinned fixture, byte
   822 is the first queued packet's cell (seq 32, cell 5) and byte 830
   its destination (pipeline 1).  Forged out of range, each is rejected
   at the field. *)
(* The pinned fixture's fields, as its decode reads them. *)
let fixture_fields prog trace snap =
  walk_fields "fixture"
    (fun ~cycle_budget s -> Sim.resume ~cycle_budget ~snapshot:s prog (Psource.of_array trace))
    snap

(* The offset of the first field named [what]. *)
let field_at fields what =
  match List.find_opt (fun (f : Codec.field) -> f.Codec.what = what) fields with
  | Some f -> f.Codec.pos
  | None -> Alcotest.failf "no %s field" what

let test_rejects_forged_access () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let fields = fixture_fields prog trace snap in
  let field at =
    match List.find_opt (fun (f : Codec.field) -> f.Codec.pos = at) fields with
    | Some f -> f.Codec.what
    | None -> Alcotest.failf "no field at byte %d" at
  in
  Alcotest.(check (pair string int)) "byte 822" ("access cell", 5) (field 822, int_at snap 822);
  Alcotest.(check (pair string int))
    "byte 830" ("access destination pipeline", 1) (field 830, int_at snap 830);
  check_forged_int ~what:"access cell 65536" snap prog trace ~at:822 65536 "access cell 65536";
  check_forged_int ~what:"access cell -5" snap prog trace ~at:822 (-5) "access cell -5";
  check_forged_int ~what:"access destination 9" snap prog trace ~at:830 9
    "access destination pipeline 9 out of range"

(* An index map's in-flight count must be the pins its restored
   accesses hold on the cell, and its access count non-negative: either
   forged is rejected at the entry, not by [Index_map.decr_inflight]'s
   assertion partway through the resumed run. *)
let test_rejects_forged_pins () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let fields = fixture_fields prog trace snap in
  let pins = field_at fields "index map in-flight count" in
  check_forged_int ~what:"one pin too many" snap prog trace ~at:pins
    (int_at snap pins + 1)
    "does not match its restored pins";
  check_forged_int ~what:"negative in-flight count" snap prog trace ~at:pins (-1)
    "index map in-flight count -1 out of range";
  let counts = field_at fields "index map access count" in
  check_forged_int ~what:"negative access count" snap prog trace ~at:counts (-1)
    "index map access count -1 out of range"

(* The params and loop bounds are checked before anything is sized from
   them: [k] within a transfer descriptor's 6 bits (a forged 0 would
   divide by zero, 2^32 exhaust memory), a bounded FIFO capacity and
   remap period, a bounded cycle, and a progress mark no later than it
   (a forged one would trip the deadlock guard inside [Sim.resume]). *)
let test_rejects_forged_params () =
  let prog, trace, _params, snap = snapshot_fixture () in
  let fields = fixture_fields prog trace snap in
  let forge what v needle =
    check_forged_int ~what:(Printf.sprintf "%s %d" what v) snap prog trace
      ~at:(field_at fields what) v needle
  in
  forge "pipeline count" 0 "pipeline count 0 out of range [1, 64]";
  forge "pipeline count" 65 "pipeline count 65 out of range [1, 64]";
  forge "pipeline count" (1 lsl 32) "pipeline count 4294967296 out of range";
  forge "FIFO capacity" (1 lsl 40) "FIFO capacity 1099511627776 out of range";
  forge "remap period" 0 "remap period 0 out of range";
  forge "cycle" (1 lsl 61) "cycle 2305843009213693952 out of range";
  let now = int_at snap (field_at fields "cycle") in
  forge "last progress cycle" (now + 1)
    (Printf.sprintf "last progress cycle %d out of range" (now + 1))

let () =
  Alcotest.run "snapshot"
    [
      ( "resume",
        [
          Alcotest.test_case "checkpoint/resume is invisible (100 programs)" `Quick
            test_resume_invisible;
          Alcotest.test_case "a switch resumed into its suspended machine, at most once"
            `Quick test_switch_resume_into;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "damaged snapshots are rejected, positioned" `Quick
            test_rejects_damage;
          Alcotest.test_case "mismatched snapshots are rejected" `Quick test_rejects_mismatch;
          Alcotest.test_case "a non-positive cadence is rejected by run_source and resume"
            `Quick test_rejects_bad_cadence;
          Alcotest.test_case "a forged phantom delivery is rejected at decode" `Quick
            test_rejects_forged_delivery;
          Alcotest.test_case "a forged transfer descriptor is rejected at decode" `Quick
            test_rejects_forged_transfer;
          Alcotest.test_case "a forged index map pipeline is rejected at decode" `Quick
            test_rejects_forged_index_map;
          Alcotest.test_case "a delivery for a packet neither in flight nor dropped is rejected"
            `Quick test_rejects_orphan_delivery;
          Alcotest.test_case "an access log key outside the register file is rejected" `Quick
            test_rejects_forged_access_key;
          Alcotest.test_case "an access cell or destination out of range is rejected" `Quick
            test_rejects_forged_access;
          Alcotest.test_case "forged index map pins or counts are rejected at the entry" `Quick
            test_rejects_forged_pins;
          Alcotest.test_case "forged params and loop bounds are rejected before sizing" `Quick
            test_rejects_forged_params;
        ] );
      ( "forge",
        [
          Alcotest.test_case "every field of both fixtures forged: Ok, Corrupt or Mismatch"
            `Quick test_forge_every_field;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "write_rotated keeps a bounded chain" `Quick test_rotation_chain;
          Alcotest.test_case "torn newest snapshot falls back and finishes bit-identical"
            `Quick test_torn_fallback;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "mid-flight fabric snapshot/resume is invisible" `Quick
            test_fabric_resume;
          Alcotest.test_case "a fabric snapshot is a fixed point of resume" `Quick
            test_fabric_fixed_point;
          Alcotest.test_case "a node restored into a retired node = a fresh restore" `Quick
            test_node_restore_into;
          Alcotest.test_case "a suspended fabric is resumed into at most once" `Quick
            test_fabric_take_once;
          Alcotest.test_case "a failed resume leaves no machines behind" `Quick
            test_fabric_failed_resume;
          Alcotest.test_case "legs alternating monitored and bare nodes resume bit-identical"
            `Quick test_fabric_alternating_monitors;
          Alcotest.test_case "damaged or mismatched fabric snapshots are rejected" `Quick
            test_fabric_rejects;
          Alcotest.test_case "node errors carry absolute file offsets" `Quick
            test_node_error_absolute;
          Alcotest.test_case "a corrupt payload is reported before any decode error" `Quick
            test_fabric_error_precedence;
          Alcotest.test_case "a forged node frame length stays inside its frame" `Quick
            test_nested_frame_bounded;
          Alcotest.test_case "a forged metadata destination is rejected at decode" `Quick
            test_rejects_forged_meta_dst;
          Alcotest.test_case "forged metadata keys are rejected at decode" `Quick
            test_rejects_forged_meta_keys;
          Alcotest.test_case "a forged in-flight seq is rejected before it sizes the table"
            `Quick test_rejects_forged_inflight_seq;
        ] );
      ( "format",
        [
          Alcotest.test_case "fixture snapshots are byte-identical to the pinned format" `Quick
            test_format_pinned;
          Alcotest.test_case "checksum is FNV-1a-64" `Quick test_checksum_vectors;
          QCheck_alcotest.to_alcotest prop_checksum_oracle;
          QCheck_alcotest.to_alcotest prop_fnv2_oracle;
          Alcotest.test_case "nested frames seal byte-identically" `Quick test_nested_sealing;
          Alcotest.test_case "an encoder must write the same bytes twice" `Quick
            test_unstable_encoder;
        ] );
    ]
