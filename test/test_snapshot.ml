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
  let chunk_metrics = if with_metrics then Some (metrics_for prog k) else None in
  let first =
    Sim.run_source ?metrics:chunk_metrics ?fault ?monitor:(monitor ()) ~cycle_budget:budget
      params prog (Psource.of_array trace)
  in
  let chunks = ref 1 in
  let last_metrics = ref chunk_metrics in
  let rec go = function
    | Sim.Completed s -> s
    | Sim.Suspended snap -> (
        incr chunks;
        if !chunks > 200 then Alcotest.failf "seed %d: resume loop does not converge" seed;
        (* Every chunk resumes against a *fresh* source: the consumed
           prefix is replayed and checked against the snapshot's input
           digest each time. *)
        let m = if with_metrics then Some (metrics_for prog k) else None in
        last_metrics := m;
        match
          Sim.resume ?metrics:m ?monitor:(monitor ()) ~cycle_budget:budget ~snapshot:snap
            prog (Psource.of_array trace)
        with
        | Ok o -> go o
        | Error (Sim.Corrupt msg) ->
            Alcotest.failf "seed %d: fresh snapshot rejected as corrupt: %s\n%s" seed msg src
        | Error (Sim.Mismatch msg) ->
            Alcotest.failf "seed %d: fresh snapshot rejected as mismatch: %s\n%s" seed msg src)
  in
  let chunked = go first in
  if not (Sim.summary_equal straight chunked) then
    Alcotest.failf
      "seed %d (k=%d, budget=%d, %d chunks%s%s): chunked resume diverges from the \
       uninterrupted run on:\n\
       %s"
      seed k budget !chunks
      (if fault <> None then ", faulted" else "")
      (if with_metrics then ", metered" else "")
      src;
  match (straight_metrics, !last_metrics) with
  | Some a, Some b ->
      if not (Mp5_obs.Metrics.equal a b) then
        Alcotest.failf "seed %d: restored metrics diverge from the uninterrupted run's" seed
  | _ -> ()

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
   digest and histogram), including when the resume runs on a team.
   Damaged fabric snapshots are [Corrupt]; a snapshot resumed against a
   different topology, routing policy or program is [Mismatch]. *)

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

let test_fabric_resume () =
  let prog, trace, dst, fp = fabric_fixture () in
  let straight =
    fabric_completed (Fabric.run ~dst fp prog (Psource.of_array trace))
  in
  (* Chunk the run through suspensions; each leg resumes from the
     previous snapshot against a fresh source (replayed-prefix path). *)
  let team = Mp5_util.Pool.Team.create ~jobs:2 in
  let rec chunks ?team n outcome =
    match outcome with
    | Fabric.Completed r -> (n, r)
    | Fabric.Suspended snap -> (
        if n > 50 then Alcotest.fail "fabric resume chain does not terminate";
        match
          Fabric.resume ?team ~cycle_budget:30 ~dst ~snapshot:snap fp prog
            (Psource.of_array trace)
        with
        | Ok o -> chunks ?team (n + 1) o
        | Error (Sim.Corrupt m) -> Alcotest.failf "chunk %d: corrupt: %s" n m
        | Error (Sim.Mismatch m) -> Alcotest.failf "chunk %d: mismatch: %s" n m)
  in
  let first = Fabric.run ~cycle_budget:12 ~dst fp prog (Psource.of_array trace) in
  (match first with
  | Fabric.Suspended _ -> ()
  | Fabric.Completed _ -> Alcotest.fail "budget 12 did not suspend the fabric run");
  let n, chunked = chunks 0 first in
  if n < 2 then Alcotest.failf "expected several suspensions, got %d" n;
  if not (Fabric.results_equal straight chunked) then
    Alcotest.fail "chunked fabric run diverges from the uninterrupted run";
  (* Resuming on a team must land on the same result. *)
  let _, par = chunks ~team 0 (Fabric.run ~cycle_budget:12 ~dst fp prog (Psource.of_array trace)) in
  Mp5_util.Pool.Team.shutdown team;
  if not (Fabric.results_equal straight par) then
    Alcotest.fail "fabric resume on a team diverges from the uninterrupted run"

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
      let before = Gc.allocated_bytes () in
      let pos, msg = fabric_corrupt_pos what (prog, trace, dst, fp) (Bytes.to_string b) in
      let allocated = Gc.allocated_bytes () -. before in
      if pos < nf.nf_prefix || pos >= nf.nf_end then
        Alcotest.failf "%s: error at byte %d, outside node 0's frame [%d, %d): %s" what pos
          nf.nf_prefix nf.nf_end msg;
      if allocated > float_of_int (16 * String.length snap) then
        Alcotest.failf "%s: rejecting it allocated %.0f bytes" what allocated)
    [ len + 8; len + (1 lsl 30); max_int; len - 8 ]

let () =
  Alcotest.run "snapshot"
    [
      ( "resume",
        [
          Alcotest.test_case "checkpoint/resume is invisible (100 programs)" `Quick
            test_resume_invisible;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "damaged snapshots are rejected, positioned" `Quick
            test_rejects_damage;
          Alcotest.test_case "mismatched snapshots are rejected" `Quick test_rejects_mismatch;
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
          Alcotest.test_case "damaged or mismatched fabric snapshots are rejected" `Quick
            test_fabric_rejects;
                  Alcotest.test_case "node errors carry absolute file offsets" `Quick
            test_node_error_absolute;
          Alcotest.test_case "a forged node frame length stays inside its frame" `Quick
            test_nested_frame_bounded;
        ] );
      ( "format",
        [
          Alcotest.test_case "fixture snapshots are byte-identical to the pinned format" `Quick
            test_format_pinned;
          Alcotest.test_case "checksum is FNV-1a-64" `Quick test_checksum_vectors;
          QCheck_alcotest.to_alcotest prop_checksum_oracle;
        ] );
    ]
