(* Supervisor and chaos-harness unit tests.

   The supervisor is exercised with tiny child closures that exit,
   crash, or stall on demand — each verdict shape (completed after N
   restarts, failed on a non-retryable exit, gave up at the budget) is
   pinned, along with the backoff curve and the heartbeat file protocol.
   The chaos layer's pure pieces — case generation, the textual repro
   round-trip, the delta-debugging shrinker — are tested without
   processes, and one real supervised campaign with a kill and a torn
   checkpoint runs end to end and must recover bit-identically. *)

module Supervisor = Mp5_robust.Supervisor
module Chaos = Mp5_robust.Chaos
module Binio = Mp5_util.Binio

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mp5-robust-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o700;
    d

(* --- backoff --- *)

let test_backoff () =
  let b restart = Supervisor.backoff ~base:0.1 ~cap:2.0 ~restart in
  Alcotest.(check (float 1e-9)) "restart 1" 0.1 (b 1);
  Alcotest.(check (float 1e-9)) "restart 2" 0.2 (b 2);
  Alcotest.(check (float 1e-9)) "restart 3" 0.4 (b 3);
  Alcotest.(check (float 1e-9)) "restart 5" 1.6 (b 5);
  Alcotest.(check (float 1e-9)) "capped" 2.0 (b 6);
  Alcotest.(check (float 1e-9)) "stays capped" 2.0 (b 40)

(* --- heartbeat file protocol --- *)

let test_heartbeat () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "beat.hb" in
  let hb = Supervisor.Heartbeat.create ~path in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Supervisor.Heartbeat.beat hb ~cycle:7;
  let a = read () in
  Supervisor.Heartbeat.beat hb ~cycle:8;
  let b = read () in
  Alcotest.(check bool) "content changes across beats" true (a <> b);
  (* Same cycle twice: the sequence number must still change the file. *)
  Supervisor.Heartbeat.beat hb ~cycle:8;
  let c = read () in
  Alcotest.(check bool) "same cycle still changes content" true (b <> c);
  Alcotest.(check bool) "fixed-width line" true
    (String.length a = String.length c);
  Supervisor.Heartbeat.close hb

(* --- supervisor verdicts ---

   Children are closures that fork-exec nothing: they write snapshots /
   raise signals on themselves directly.  Timings are tightened so the
   whole group runs in well under a second. *)

let config ~dir ?(max_restarts = 3) logs =
  let snapshot_path = Filename.concat dir "run.snap" in
  {
    (Supervisor.default ~snapshot_path) with
    hang_timeout = 0.4;
    poll_interval = 0.02;
    max_restarts;
    backoff_base = 0.01;
    backoff_max = 0.02;
    log = (fun line -> logs := line :: !logs);
  }

let magic = Mp5_core.Sim.snapshot_magic

(* A minimal well-framed snapshot the rotation chain will validate. *)
let snapshot_bytes tag =
  Binio.to_string ~magic (fun w -> Binio.w_string w tag)

let test_completed_clean () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir logs in
  let verdict =
    Supervisor.supervise cfg ~child:(fun ~attempt ~resume ->
        assert (attempt = 0);
        assert (resume = None);
        0)
  in
  (match verdict with
  | Supervisor.Completed { restarts } ->
      Alcotest.(check int) "no restarts" 0 restarts
  | v -> Alcotest.failf "expected Completed, got %a" Supervisor.pp_verdict v);
  let transcript = List.rev !logs in
  Alcotest.(check bool) "fresh-start line" true
    (List.exists (fun l -> l = "[supervisor] leg 0: fresh start") transcript);
  Alcotest.(check bool) "completion line" true
    (List.exists (fun l -> l = "[supervisor] run completed after 0 restarts") transcript)

let test_restart_resumes_from_snapshot () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir logs in
  let verdict =
    Supervisor.supervise cfg ~child:(fun ~attempt ~resume ->
        match attempt with
        | 0 ->
            assert (resume = None);
            Binio.write_rotated ~path:cfg.Supervisor.snapshot_path
              ~keep:cfg.Supervisor.keep_snapshots (snapshot_bytes "leg0");
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            125
        | _ -> (
            match resume with
            | Some (slot, contents) ->
                assert (slot = cfg.Supervisor.snapshot_path);
                let r = Result.get_ok (Binio.of_string ~magic contents) in
                assert (Binio.r_string r = "leg0");
                0
            | None -> 7))
  in
  (match verdict with
  | Supervisor.Completed { restarts } -> Alcotest.(check int) "one restart" 1 restarts
  | v -> Alcotest.failf "expected Completed, got %a" Supervisor.pp_verdict v);
  let transcript = List.rev !logs in
  Alcotest.(check bool) "kill reported" true
    (List.exists (fun l -> l = "[supervisor] leg 0 killed by SIGKILL") transcript);
  Alcotest.(check bool) "backoff line" true
    (List.exists (fun l -> l = "[supervisor] restart 1/3 after 0.01s backoff") transcript);
  Alcotest.(check bool) "resume line names the slot" true
    (List.exists (fun l -> l = "[supervisor] leg 1: resume from run.snap") transcript)

let test_torn_snapshot_falls_back () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir logs in
  let verdict =
    Supervisor.supervise cfg ~child:(fun ~attempt ~resume ->
        match attempt with
        | 0 ->
            (* A good checkpoint, then a torn newer one: rotate shifts
               the good one to .1 and the crash leaves garbage in the
               newest slot. *)
            Binio.write_rotated ~path:cfg.Supervisor.snapshot_path
              ~keep:cfg.Supervisor.keep_snapshots (snapshot_bytes "good");
            Binio.rotate ~path:cfg.Supervisor.snapshot_path
              ~keep:cfg.Supervisor.keep_snapshots;
            Out_channel.with_open_bin cfg.Supervisor.snapshot_path (fun oc ->
                Out_channel.output_string oc
                  (String.sub (snapshot_bytes "torn") 0 9));
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            125
        | _ -> (
            match resume with
            | Some (slot, contents) ->
                assert (slot = cfg.Supervisor.snapshot_path ^ ".1");
                let r = Result.get_ok (Binio.of_string ~magic contents) in
                assert (Binio.r_string r = "good");
                0
            | None -> 7))
  in
  match verdict with
  | Supervisor.Completed { restarts } -> Alcotest.(check int) "one restart" 1 restarts
  | v -> Alcotest.failf "expected Completed, got %a" Supervisor.pp_verdict v

let test_nonretryable_exit_fails () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir logs in
  let verdict = Supervisor.supervise cfg ~child:(fun ~attempt:_ ~resume:_ -> 3) in
  match verdict with
  | Supervisor.Failed { restarts; last = Supervisor.Exited 3 } ->
      Alcotest.(check int) "no restarts burned" 0 restarts
  | v -> Alcotest.failf "expected Failed (exit 3), got %a" Supervisor.pp_verdict v

let test_budget_exhaustion_gives_up () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir ~max_restarts:2 logs in
  let verdict =
    Supervisor.supervise cfg ~child:(fun ~attempt:_ ~resume:_ ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        125)
  in
  (match verdict with
  | Supervisor.Gave_up { restarts; last = Supervisor.Signaled s } ->
      Alcotest.(check int) "budget spent" 2 restarts;
      Alcotest.(check int) "last end is SIGKILL" Sys.sigkill s
  | v -> Alcotest.failf "expected Gave_up, got %a" Supervisor.pp_verdict v);
  let transcript = List.rev !logs in
  Alcotest.(check bool) "gave-up line" true
    (List.exists
       (fun l ->
         l
         = "[supervisor] restart budget exhausted (2): giving up; latest snapshot kept \
            at run.snap")
       transcript)

let test_watchdog_kills_hung_child () =
  let dir = fresh_dir () in
  let logs = ref [] in
  let cfg = config ~dir ~max_restarts:1 logs in
  let verdict =
    Supervisor.supervise cfg ~child:(fun ~attempt ~resume:_ ->
        if attempt = 0 then (
          (* Beat once, then stall well past the hang deadline. *)
          let hb = Supervisor.Heartbeat.create ~path:cfg.Supervisor.heartbeat_path in
          Supervisor.Heartbeat.beat hb ~cycle:1;
          Unix.sleepf 30.0;
          125)
        else 0)
  in
  match verdict with
  | Supervisor.Completed { restarts } ->
      Alcotest.(check int) "watchdog burned one restart" 1 restarts;
      Alcotest.(check bool) "hang reported" true
        (List.exists
           (fun l -> l = "[supervisor] leg 0 hung (watchdog)")
           (List.rev !logs))
  | v -> Alcotest.failf "expected Completed after hang, got %a" Supervisor.pp_verdict v

(* --- chaos: pure pieces --- *)

let test_generate_deterministic () =
  for seed = 0 to 19 do
    let a = Chaos.generate ~seed and b = Chaos.generate ~seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Chaos.case_to_string a) (Chaos.case_to_string b);
    Alcotest.(check bool) "has crashes" true (a.Chaos.cs_crashes <> []);
    Alcotest.(check bool) "sane k" true (a.Chaos.cs_k >= 2)
  done

let test_case_roundtrip () =
  for seed = 0 to 39 do
    let case = Chaos.generate ~seed in
    match Chaos.case_of_string (Chaos.case_to_string case) with
    | Error m -> Alcotest.failf "seed %d: round-trip failed: %s" seed m
    | Ok back ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d round-trips" seed)
          (Chaos.case_to_string case) (Chaos.case_to_string back)
  done;
  (match Chaos.case_of_string "not a case" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Chaos.case_of_string "mp5-chaos-case/1\ncrash kill @nope\n" with
  | Ok _ -> Alcotest.fail "malformed crash line accepted"
  | Error _ -> ()

let test_shrink_minimizes () =
  (* A case fails iff it still schedules a wedge: the shrinker must strip
     everything else (events, other crashes, excess packets) and keep
     exactly one wedge. *)
  let case = Chaos.generate ~seed:11 in
  let case =
    {
      case with
      Chaos.cs_crashes =
        [ Chaos.Kill_at 10; Chaos.Wedge_at 20; Chaos.Torn_checkpoint (1, Chaos.Mid_write) ];
    }
  in
  let fails c =
    List.exists (function Chaos.Wedge_at _ -> true | _ -> false) c.Chaos.cs_crashes
  in
  let minimal, probes = Chaos.shrink ~fails case in
  Alcotest.(check bool) "still fails" true (fails minimal);
  Alcotest.(check int) "single crash kept" 1 (List.length minimal.Chaos.cs_crashes);
  Alcotest.(check (list string)) "no plan events left" []
    (List.map (fun _ -> "event") minimal.Chaos.cs_plan.Mp5_fault.Fault.events);
  Alcotest.(check bool) "packets reduced to the floor" true
    (minimal.Chaos.cs_packets <= 16);
  Alcotest.(check bool) "probes counted" true (probes > 0)

let test_shrink_respects_budget () =
  let case = Chaos.generate ~seed:4 in
  let probed = ref 0 in
  let fails _ = incr probed; true in
  let _, probes = Chaos.shrink ~fails ~budget:5 case in
  Alcotest.(check bool) "stops at the budget" true (probes <= 5)

let test_repro_artifact () =
  let dir = fresh_dir () in
  let case = Chaos.generate ~seed:21 in
  let path = Chaos.write_repro ~dir ~reason:"digest mismatch" case in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "reason recorded as comment" true
    (String.length text > 0
    && List.exists
         (fun l -> l = "# reason: digest mismatch")
         (String.split_on_char '\n' text));
  match Chaos.case_of_string text with
  | Ok back ->
      Alcotest.(check string) "artifact loads back" (Chaos.case_to_string case)
        (Chaos.case_to_string back)
  | Error m -> Alcotest.failf "artifact unreadable: %s" m

(* --- chaos: one real supervised campaign --- *)

let test_run_case_recovers () =
  let dir = fresh_dir () in
  let case = Chaos.generate ~seed:1 in
  let case =
    {
      case with
      Chaos.cs_crashes =
        [ Chaos.Kill_at 25; Chaos.Torn_checkpoint (1, Chaos.Mid_write) ];
    }
  in
  let o = Chaos.run_case ~dir case in
  (match o.Chaos.co_failure with
  | None -> ()
  | Some r -> Alcotest.failf "campaign failed: %s" r);
  Alcotest.(check int) "both crashes recovered" 2 o.Chaos.co_restarts

let test_sabotage_skips_processes () =
  let dir = fresh_dir () in
  let case = Chaos.generate ~seed:2 in
  let o = Chaos.run_case ~dir ~sabotage:(fun _ -> true) case in
  (match o.Chaos.co_failure with
  | Some _ -> ()
  | None -> Alcotest.fail "sabotaged case reported success");
  let o = Chaos.run_case ~dir ~sabotage:(fun _ -> false) case in
  match o.Chaos.co_failure with
  | None -> ()
  | Some r -> Alcotest.failf "unsabotaged case failed: %s" r

let () =
  Alcotest.run "robust"
    [
      ( "supervisor",
        [
          Alcotest.test_case "backoff doubles then caps" `Quick test_backoff;
          Alcotest.test_case "heartbeat content changes every beat" `Quick test_heartbeat;
          Alcotest.test_case "clean leg completes with 0 restarts" `Quick
            test_completed_clean;
          Alcotest.test_case "SIGKILLed leg restarts from its snapshot" `Quick
            test_restart_resumes_from_snapshot;
          Alcotest.test_case "torn newest snapshot falls back a slot" `Quick
            test_torn_snapshot_falls_back;
          Alcotest.test_case "non-retryable exit fails without retry" `Quick
            test_nonretryable_exit_fails;
          Alcotest.test_case "restart budget exhaustion gives up" `Quick
            test_budget_exhaustion_gives_up;
          Alcotest.test_case "watchdog SIGKILLs a hung child" `Quick
            test_watchdog_kills_hung_child;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "generate is deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "case text round-trips" `Quick test_case_roundtrip;
          Alcotest.test_case "shrink reaches the minimal failing case" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "shrink respects its probe budget" `Quick
            test_shrink_respects_budget;
          Alcotest.test_case "repro artifact records reason and loads back" `Quick
            test_repro_artifact;
          Alcotest.test_case "kill + torn-checkpoint campaign recovers bit-identically"
            `Quick test_run_case_recovers;
          Alcotest.test_case "sabotage hook decides without processes" `Quick
            test_sabotage_skips_processes;
        ] );
    ]
