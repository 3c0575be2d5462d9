module Binio = Mp5_util.Binio

module Heartbeat = struct
  type t = { fd : Unix.file_descr; mutable seq : int }

  let create ~path =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    { fd; seq = 0 }

  let beat t ~cycle =
    t.seq <- t.seq + 1;
    (* Fixed-width line so in-place overwrite never leaves a stale tail. *)
    let s = Printf.sprintf "%019d %019d\n" t.seq cycle in
    ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
    ignore (Unix.write_substring t.fd s 0 (String.length s))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

type child_end = Exited of int | Signaled of int | Hung

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let pp_child_end ppf = function
  | Exited c -> Format.fprintf ppf "exited with code %d" c
  | Signaled s -> Format.fprintf ppf "killed by %s" (signal_name s)
  | Hung -> Format.fprintf ppf "hung (watchdog)"

type verdict =
  | Completed of { restarts : int }
  | Failed of { restarts : int; last : child_end }
  | Gave_up of { restarts : int; last : child_end }

let pp_verdict ppf = function
  | Completed { restarts } -> Format.fprintf ppf "completed (%d restarts)" restarts
  | Failed { restarts; last } ->
      Format.fprintf ppf "failed after %d restarts: %a" restarts pp_child_end last
  | Gave_up { restarts; last } ->
      Format.fprintf ppf "gave up after %d restarts: %a" restarts pp_child_end last

type config = {
  snapshot_path : string;
  keep_snapshots : int;
  heartbeat_path : string;
  hang_timeout : float;
  poll_interval : float;
  max_restarts : int;
  backoff_base : float;
  backoff_max : float;
  log : string -> unit;
}

let default ~snapshot_path =
  {
    snapshot_path;
    keep_snapshots = 2;
    heartbeat_path = snapshot_path ^ ".hb";
    hang_timeout = 5.0;
    poll_interval = 0.05;
    max_restarts = 5;
    backoff_base = 0.1;
    backoff_max = 2.0;
    log = (fun line -> prerr_endline line);
  }

(* A signal or a hang may not recur; a plain non-zero exit will. *)
let retryable = function Signaled _ | Hung -> true | Exited _ -> false

let backoff ~base ~cap ~restart =
  let restart = max 1 restart in
  let d = base *. (2. ** float_of_int (restart - 1)) in
  if d > cap then cap else d

let read_beat path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let sleepf d = try Unix.sleepf d with Unix.Unix_error _ -> ()

(* One leg: fork, run [child] in the child process, watch the heartbeat
   file from the parent.  A child whose beat file does not change for
   [hang_timeout] seconds is SIGKILLed and reported [Hung]. *)
let run_leg cfg ~attempt ~resume ~child =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try child ~attempt ~resume
        with exn ->
          Printf.eprintf "[supervisor] child raised: %s\n%!" (Printexc.to_string exn);
          125
      in
      (try flush stdout with Sys_error _ -> ());
      (try flush stderr with Sys_error _ -> ());
      Unix._exit code
  | pid ->
      let rec watch ~last ~changed_at =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            let now = Unix.gettimeofday () in
            let beat = read_beat cfg.heartbeat_path in
            let last, changed_at =
              if beat <> None && beat <> last then (beat, now) else (last, changed_at)
            in
            if now -. changed_at > cfg.hang_timeout then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid);
              Hung
            end
            else begin
              sleepf cfg.poll_interval;
              watch ~last ~changed_at
            end
        | _, Unix.WEXITED c -> Exited c
        | _, Unix.WSIGNALED s -> Signaled s
        | _, Unix.WSTOPPED _ ->
            sleepf cfg.poll_interval;
            watch ~last ~changed_at
      in
      watch ~last:None ~changed_at:(Unix.gettimeofday ())

let supervise cfg ~child =
  if cfg.keep_snapshots < 1 then invalid_arg "Supervisor.supervise: keep_snapshots < 1";
  Binio.remove_slots ~path:cfg.snapshot_path ~keep:cfg.keep_snapshots;
  (try Sys.remove cfg.heartbeat_path with Sys_error _ -> ());
  cfg.log
    (Printf.sprintf "[supervisor] supervising: snapshot %s (keep %d), hang timeout %gs, max restarts %d"
       (Filename.basename cfg.snapshot_path)
       cfg.keep_snapshots cfg.hang_timeout cfg.max_restarts);
  let rec leg ~restarts =
    let resume =
      match
        Binio.load_latest_valid ~magic:Mp5_core.Sim.snapshot_magic ~path:cfg.snapshot_path
          ~keep:cfg.keep_snapshots
      with
      | Ok (slot, contents) -> Some (slot, contents)
      | Error _ -> None
    in
    (match resume with
    | None -> cfg.log (Printf.sprintf "[supervisor] leg %d: fresh start" restarts)
    | Some (slot, _) ->
        cfg.log
          (Printf.sprintf "[supervisor] leg %d: resume from %s" restarts
             (Filename.basename slot)));
    match run_leg cfg ~attempt:restarts ~resume ~child with
    | Exited 0 ->
        cfg.log
          (Printf.sprintf "[supervisor] run completed after %d restart%s" restarts
             (if restarts = 1 then "" else "s"));
        Completed { restarts }
    | e when not (retryable e) ->
        cfg.log (Format.asprintf "[supervisor] leg %d %a: not retryable" restarts pp_child_end e);
        Failed { restarts; last = e }
    | e ->
        cfg.log (Format.asprintf "[supervisor] leg %d %a" restarts pp_child_end e);
        if restarts >= cfg.max_restarts then begin
          cfg.log
            (Printf.sprintf
               "[supervisor] restart budget exhausted (%d): giving up; latest snapshot kept at %s"
               cfg.max_restarts
               (Filename.basename cfg.snapshot_path));
          Gave_up { restarts; last = e }
        end
        else begin
          let d = backoff ~base:cfg.backoff_base ~cap:cfg.backoff_max ~restart:(restarts + 1) in
          cfg.log
            (Printf.sprintf "[supervisor] restart %d/%d after %gs backoff" (restarts + 1)
               cfg.max_restarts d);
          sleepf d;
          leg ~restarts:(restarts + 1)
        end
  in
  leg ~restarts:0
