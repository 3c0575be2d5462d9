module Binio = Mp5_util.Binio
module Store = Mp5_banzai.Store
module Fault = Mp5_fault.Fault
module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Progen = Mp5_fuzz.Progen
module Packet_source = Mp5_workload.Packet_source

type torn_phase = Mid_write | Before_rename | After_rename

type crash =
  | Kill_at of int
  | Torn_checkpoint of int * torn_phase
  | Wedge_at of int

let phase_kw = function
  | Mid_write -> "mid-write"
  | Before_rename -> "before-rename"
  | After_rename -> "after-rename"

let pp_crash ppf = function
  | Kill_at c -> Format.fprintf ppf "kill@%d" c
  | Wedge_at c -> Format.fprintf ppf "wedge@%d" c
  | Torn_checkpoint (n, ph) -> Format.fprintf ppf "torn#%d/%s" n (phase_kw ph)

type case = {
  cs_seed : int;
  cs_k : int;
  cs_packets : int;
  cs_checkpoint_every : int;
  cs_plan : Fault.plan;
  cs_crashes : crash list;
}

let pp_case ppf c =
  Format.fprintf ppf "seed=%d k=%d packets=%d ckpt=%d events=%d crashes=[%a]" c.cs_seed
    c.cs_k c.cs_packets c.cs_checkpoint_every
    (List.length c.cs_plan.Fault.events)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       pp_crash)
    c.cs_crashes

(* {2 Generation} *)

let generate ~seed =
  let st = Random.State.make [| 0x6d703563; seed |] in
  let k = 2 + Random.State.int st 3 in
  let packets = 150 + Random.State.int st 250 in
  let checkpoint_every = 8 + Random.State.int st 25 in
  (* The trace is line-rate (k packets per cycle), so the run spans
     roughly [packets / k] cycles; crash and event cycles must land
     inside that span or they never fire. *)
  let span = max 40 (packets / k) in
  let cyc lo hi = lo + Random.State.int st (max 1 (hi - lo)) in
  let events = ref [] in
  (* At most one down/up pair, so the last-live-pipeline rule can never
     trip (k >= 2). *)
  if Random.State.bool st then begin
    let p = Random.State.int st k in
    let c1 = cyc 5 (span / 2) in
    let c2 = c1 + 10 + Random.State.int st (span / 2) in
    events :=
      Fault.point ~at:c2 (Fault.Pipe_up p)
      :: Fault.point ~at:c1 (Fault.Pipe_down p)
      :: !events
  end;
  if Random.State.bool st then begin
    (* Stage 1 always exists: stage 0 is the resolution stage, and a
       compiled program contributes at least one more. *)
    let c1 = cyc 5 span in
    events :=
      Fault.window ~from_:c1 ~until_:(c1 + 20)
        (Fault.Stall { stage = 1; pipe = Random.State.int st k })
      :: !events
  end;
  if Random.State.int st 3 = 0 then begin
    let c1 = cyc 5 span in
    events := Fault.window ~from_:c1 ~until_:(c1 + 30) (Fault.Xbar_drop 0.02) :: !events
  end;
  if Random.State.int st 4 = 0 then begin
    let c1 = cyc 5 span in
    events :=
      Fault.window ~from_:c1 ~until_:(c1 + 25)
        (Fault.Phantom_delay (1 + Random.State.int st 3))
      :: !events
  end;
  let plan = { Fault.seed = Random.State.int st 10_000; events = List.rev !events } in
  let crash () =
    match Random.State.int st 10 with
    | 0 | 1 | 2 | 3 | 4 -> Kill_at (cyc 5 (span * 3 / 4))
    | 5 | 6 | 7 ->
        let nth = 1 + Random.State.int st 3 in
        let ph =
          match Random.State.int st 3 with
          | 0 -> Mid_write
          | 1 -> Before_rename
          | _ -> After_rename
        in
        Torn_checkpoint (nth, ph)
    | _ -> Wedge_at (cyc 5 (span * 3 / 4))
  in
  let n_crashes = 1 + Random.State.int st 3 in
  let crashes = ref [] in
  for _ = 1 to n_crashes do
    crashes := crash () :: !crashes
  done;
  {
    cs_seed = seed;
    cs_k = k;
    cs_packets = packets;
    cs_checkpoint_every = checkpoint_every;
    cs_plan = plan;
    cs_crashes = List.rev !crashes;
  }

(* {2 Repro artifact text format} *)

let case_magic = "mp5-chaos-case/1"

let crash_to_string = function
  | Kill_at c -> Printf.sprintf "crash kill @%d" c
  | Wedge_at c -> Printf.sprintf "crash wedge @%d" c
  | Torn_checkpoint (n, ph) -> Printf.sprintf "crash torn %d %s" n (phase_kw ph)

let case_to_string c =
  let b = Buffer.create 256 in
  Buffer.add_string b (case_magic ^ "\n");
  Printf.bprintf b "seed %d\n" c.cs_seed;
  Printf.bprintf b "k %d\n" c.cs_k;
  Printf.bprintf b "packets %d\n" c.cs_packets;
  Printf.bprintf b "checkpoint-every %d\n" c.cs_checkpoint_every;
  Printf.bprintf b "plan %s\n" (Format.asprintf "%a" Fault.pp_plan c.cs_plan);
  List.iter (fun cr -> Buffer.add_string b (crash_to_string cr ^ "\n")) c.cs_crashes;
  Buffer.contents b

exception Bad of string

let case_of_string s =
  match String.split_on_char '\n' s with
  | [] -> Error "chaos case: empty"
  | magic :: rest ->
      if String.trim magic <> case_magic then
        Error (Printf.sprintf "chaos case: bad magic %S" (String.trim magic))
      else begin
        let seed = ref None
        and k = ref None
        and packets = ref None
        and ckpt = ref None
        and plan = ref None
        and crashes = ref [] in
        try
          List.iteri
            (fun lineno line ->
              let line = String.trim line in
              if line = "" || line.[0] = '#' then ()
              else begin
                let fail m = raise (Bad (Printf.sprintf "line %d: %s" (lineno + 2) m)) in
                let int_of tok =
                  match int_of_string_opt tok with
                  | Some n -> n
                  | None -> fail (Printf.sprintf "bad integer %S" tok)
                in
                let at_cycle tok =
                  if String.length tok > 1 && tok.[0] = '@' then
                    int_of (String.sub tok 1 (String.length tok - 1))
                  else fail (Printf.sprintf "expected @CYCLE, got %S" tok)
                in
                match String.index_opt line ' ' with
                | None -> fail (Printf.sprintf "bad statement %S" line)
                | Some i -> (
                    let kw = String.sub line 0 i in
                    let arg =
                      String.trim (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    match kw with
                    | "seed" -> seed := Some (int_of arg)
                    | "k" -> k := Some (int_of arg)
                    | "packets" -> packets := Some (int_of arg)
                    | "checkpoint-every" -> ckpt := Some (int_of arg)
                    | "plan" -> (
                        match Fault.parse arg with
                        | Ok p -> plan := Some p
                        | Error m -> fail ("plan: " ^ m))
                    | "crash" -> (
                        let words =
                          String.split_on_char ' ' arg |> List.filter (fun w -> w <> "")
                        in
                        match words with
                        | [ "kill"; at ] -> crashes := Kill_at (at_cycle at) :: !crashes
                        | [ "wedge"; at ] -> crashes := Wedge_at (at_cycle at) :: !crashes
                        | [ "torn"; n; ph ] ->
                            let ph =
                              match ph with
                              | "mid-write" -> Mid_write
                              | "before-rename" -> Before_rename
                              | "after-rename" -> After_rename
                              | _ -> fail (Printf.sprintf "bad torn phase %S" ph)
                            in
                            crashes := Torn_checkpoint (int_of n, ph) :: !crashes
                        | _ -> fail (Printf.sprintf "bad crash %S" arg))
                    | _ -> fail (Printf.sprintf "unknown keyword %S" kw))
              end)
            rest;
          match (!seed, !k, !packets, !ckpt) with
          | Some cs_seed, Some cs_k, Some cs_packets, Some cs_checkpoint_every ->
              Ok
                {
                  cs_seed;
                  cs_k;
                  cs_packets;
                  cs_checkpoint_every;
                  cs_plan = (match !plan with Some p -> p | None -> Fault.empty);
                  cs_crashes = List.rev !crashes;
                }
          | _ -> Error "chaos case: missing seed/k/packets/checkpoint-every"
        with Bad m -> Error ("chaos case: " ^ m)
      end

let mismatch_reason (a : Sim.summary) (b : Sim.summary) =
  let parts = ref [] in
  let note p = parts := p :: !parts in
  let chk name av bv = if av <> bv then note (Printf.sprintf "%s %d<>%d" name av bv) in
  chk "delivered" a.Sim.s_delivered b.Sim.s_delivered;
  chk "dropped" a.Sim.s_dropped b.Sim.s_dropped;
  chk "dropped-stateless" a.Sim.s_dropped_stateless b.Sim.s_dropped_stateless;
  chk "marked" a.Sim.s_marked b.Sim.s_marked;
  chk "cycles" a.Sim.s_cycles b.Sim.s_cycles;
  chk "packets" a.Sim.s_packets b.Sim.s_packets;
  chk "dg_exits" a.Sim.s_digests.Sim.dg_exits b.Sim.s_digests.Sim.dg_exits;
  chk "dg_access" a.Sim.s_digests.Sim.dg_access b.Sim.s_digests.Sim.dg_access;
  if a.Sim.s_normalized_throughput <> b.Sim.s_normalized_throughput then
    note "throughput";
  if not (Store.equal a.Sim.s_store b.Sim.s_store) then note "store";
  match !parts with
  | [] -> "summaries differ"
  | l -> "digest mismatch: " ^ String.concat ", " (List.rev l)

(* {2 Running one campaign} *)

type outcome = {
  co_restarts : int;
  co_verdict : Supervisor.verdict;
  co_failure : string option;
}

let write_raw path data = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let run_case_real ~dir ~log case =
  let tag = Printf.sprintf "chaos-%d" case.cs_seed in
  let snap = Filename.concat dir (tag ^ ".snap") in
  let hb_path = Filename.concat dir (tag ^ ".hb") in
  let result_path = Filename.concat dir (tag ^ ".result") in
  (try Sys.remove result_path with Sys_error _ -> ());
  let src_text = Progen.generate case.cs_seed in
  let sw = Switch.create_exn ~limits:Progen.limits src_text in
  let prog = sw.Switch.prog in
  let params = Sim.default_params ~k:case.cs_k in
  let trace = Progen.trace ~seed:case.cs_seed ~k:case.cs_k ~n:case.cs_packets in
  let expected =
    match Sim.run_source ~fault:case.cs_plan params prog (Packet_source.of_array trace) with
    | Sim.Completed s -> s
    | Sim.Suspended _ -> assert false
  in
  let child ~attempt ~resume =
    let crash = List.nth_opt case.cs_crashes attempt in
    let hb = Supervisor.Heartbeat.create ~path:hb_path in
    let self_kill () =
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      assert false
    in
    let ckpts = ref 0 in
    let torn phase data =
      let tmp = snap ^ ".tmp" in
      match phase with
      | Mid_write ->
          Binio.rotate ~path:snap ~keep:2;
          write_raw tmp (String.sub data 0 (String.length data / 2));
          self_kill ()
      | Before_rename ->
          Binio.rotate ~path:snap ~keep:2;
          write_raw tmp data;
          self_kill ()
      | After_rename ->
          Binio.write_rotated ~fsync:true ~path:snap ~keep:2 data;
          self_kill ()
    in
    let on_checkpoint ~cycle:_ data =
      incr ckpts;
      match crash with
      | Some (Torn_checkpoint (n, phase)) when !ckpts = n -> torn phase data
      | _ -> Binio.write_rotated ~fsync:true ~path:snap ~keep:2 data
    in
    let on_heartbeat ~cycle =
      (match crash with
      | Some (Kill_at c) when cycle >= c -> self_kill ()
      | Some (Wedge_at c) when cycle >= c ->
          while true do
            Unix.sleepf 3600.
          done
      | _ -> ());
      Supervisor.Heartbeat.beat hb ~cycle
    in
    let source = Packet_source.of_array trace in
    (* The child holds the oracle too (computed before the fork), so it
       judges its own recovered run and leaves only the verdict. *)
    let finish (s : Sim.summary) =
      Binio.write_file_durable ~path:result_path
        (if Sim.summary_equal expected s then "ok" else mismatch_reason expected s);
      0
    in
    match resume with
    | None -> (
        match
          Sim.run_source ~fault:case.cs_plan ~checkpoint_every:case.cs_checkpoint_every
            ~on_checkpoint ~heartbeat_every:1 ~on_heartbeat params prog source
        with
        | Sim.Completed s -> finish s
        | Sim.Suspended _ -> 3)
    | Some (_slot, snapshot) -> (
        match
          Sim.resume ~checkpoint_every:case.cs_checkpoint_every ~on_checkpoint
            ~heartbeat_every:1 ~on_heartbeat ~snapshot prog source
        with
        | Ok (Sim.Completed s) -> finish s
        | Ok (Sim.Suspended _) -> 3
        | Error (Sim.Corrupt m) ->
            Printf.eprintf "[chaos] resume corrupt: %s\n%!" m;
            2
        | Error (Sim.Mismatch m) ->
            Printf.eprintf "[chaos] resume mismatch: %s\n%!" m;
            2)
  in
  let scfg =
    {
      (Supervisor.default ~snapshot_path:snap) with
      Supervisor.heartbeat_path = hb_path;
      hang_timeout = 0.8;
      poll_interval = 0.02;
      max_restarts = List.length case.cs_crashes + 1;
      backoff_base = 0.02;
      backoff_max = 0.1;
      log;
    }
  in
  let verdict = Supervisor.supervise scfg ~child in
  let restarts =
    match verdict with
    | Supervisor.Completed { restarts }
    | Supervisor.Failed { restarts; _ }
    | Supervisor.Gave_up { restarts; _ } ->
        restarts
  in
  let failure =
    match verdict with
    | Supervisor.Completed _ -> (
        match In_channel.with_open_bin result_path In_channel.input_all with
        | "ok" -> Ok ()
        | reason -> Error reason
        | exception Sys_error m -> Error m)
    | Supervisor.Failed { last; _ } ->
        Error (Format.asprintf "leg %a" Supervisor.pp_child_end last)
    | Supervisor.Gave_up { restarts; _ } ->
        Error (Printf.sprintf "supervisor gave up after %d restarts" restarts)
  in
  {
    co_restarts = restarts;
    co_verdict = verdict;
    co_failure = (match failure with Ok () -> None | Error m -> Some m);
  }

let run_case ~dir ?sabotage ?(log = fun _ -> ()) case =
  match sabotage with
  | Some p ->
      if p case then
        {
          co_restarts = 0;
          co_verdict = Supervisor.Failed { restarts = 0; last = Supervisor.Exited 99 };
          co_failure = Some "injected failure (sabotage hook)";
        }
      else
        {
          co_restarts = 0;
          co_verdict = Supervisor.Completed { restarts = 0 };
          co_failure = None;
        }
  | None -> run_case_real ~dir ~log case

(* {2 Delta debugging} *)

let shrink ~fails ?(budget = 256) case0 =
  let tries = ref 0 in
  let check c =
    if !tries >= budget then false
    else begin
      incr tries;
      fails c
    end
  in
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let rec drop_events c i =
    let evs = c.cs_plan.Fault.events in
    if i >= List.length evs then c
    else
      let c' = { c with cs_plan = { c.cs_plan with Fault.events = drop_nth evs i } } in
      if check c' then drop_events c' i else drop_events c (i + 1)
  in
  let rec drop_crashes c i =
    if i >= List.length c.cs_crashes then c
    else
      let c' = { c with cs_crashes = drop_nth c.cs_crashes i } in
      if check c' then drop_crashes c' i else drop_crashes c (i + 1)
  in
  let rec fewer_packets c =
    if c.cs_packets <= 16 then c
    else
      let half = { c with cs_packets = max 16 (c.cs_packets / 2) } in
      if check half then fewer_packets half
      else
        let three_q = { c with cs_packets = max 16 (c.cs_packets * 3 / 4) } in
        if check three_q then fewer_packets three_q else c
  in
  let pass c = fewer_packets (drop_crashes (drop_events c 0) 0) in
  let rec fix c =
    let c' = pass c in
    if c' = c then c else fix c'
  in
  let minimal = fix case0 in
  (minimal, !tries)

let write_repro ~dir case ~reason =
  let path = Filename.concat dir (Printf.sprintf "chaos-repro-%d.txt" case.cs_seed) in
  let data = Printf.sprintf "%s# reason: %s\n" (case_to_string case) reason in
  Binio.write_file_durable ~path data;
  path

(* {2 Soak campaigns} *)

type report = {
  rp_campaigns : int;
  rp_crashes : int;
  rp_torn : int;
  rp_wedges : int;
  rp_restarts : int;
  rp_failures : (case * string) list;
}

let soak ~dir ~seed ~campaigns ?sabotage ?(log = fun _ -> ()) () =
  let crashes = ref 0
  and torn = ref 0
  and wedges = ref 0
  and restarts = ref 0 in
  let failures = ref [] in
  for i = 0 to campaigns - 1 do
    let case = generate ~seed:(seed + i) in
    log (Format.asprintf "[chaos] campaign %d/%d: %a" (i + 1) campaigns pp_case case);
    crashes := !crashes + List.length case.cs_crashes;
    List.iter
      (function
        | Torn_checkpoint _ -> incr torn
        | Wedge_at _ -> incr wedges
        | Kill_at _ -> ())
      case.cs_crashes;
    let o = run_case ~dir ?sabotage ~log case in
    restarts := !restarts + o.co_restarts;
    match o.co_failure with
    | None ->
        log
          (Printf.sprintf "[chaos] campaign %d recovered bit-identically (%d restarts)"
             (i + 1) o.co_restarts)
    | Some reason ->
        log (Printf.sprintf "[chaos] campaign %d FAILED: %s" (i + 1) reason);
        let fails c = (run_case ~dir ?sabotage c).co_failure <> None in
        let minimal, probes = shrink ~fails case in
        let path = write_repro ~dir minimal ~reason in
        log
          (Format.asprintf "[chaos] shrunk in %d probes to %a; repro at %s" probes pp_case
             minimal path);
        failures := (minimal, reason) :: !failures
  done;
  {
    rp_campaigns = campaigns;
    rp_crashes = !crashes;
    rp_torn = !torn;
    rp_wedges = !wedges;
    rp_restarts = !restarts;
    rp_failures = List.rev !failures;
  }
