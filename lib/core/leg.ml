module Psource = Mp5_workload.Packet_source
module Hashing = Mp5_util.Hashing
module Prof = Mp5_obs.Prof

type clock = {
  mutable now : int;
  mutable last_score : int;
  mutable last_progress_t : int;
  mutable visited : int;
}

type 'a parking = (string, 'a) Ephemeron.K1.t option ref Domain.DLS.key

let parking () = Domain.DLS.new_key (fun () -> ref None)

(* Nothing between the slot's read and its write can switch threads. *)
let take slot snapshot =
  let slot = Domain.DLS.get slot in
  let eph = !slot in
  slot := None;
  match eph with Some eph -> Ephemeron.K1.query eph snapshot | None -> None

type 'a target = {
  clock : 'a -> clock;
  live : 'a -> bool;
  busy : 'a -> bool;
  step : 'a -> int -> unit;
  score : 'a -> int;
  next_event : 'a -> int -> int;
  encode : 'a -> string;
  parked : 'a parking;
}

let run tg ~what ?prof ?cycle_budget ?stop ?checkpoint_every ?on_checkpoint ?(heartbeat_every = 1)
    ?on_heartbeat x =
  if Option.value checkpoint_every ~default:1 <= 0 then
    invalid_arg (what ^ ": checkpoint_every must be positive");
  if heartbeat_every <= 0 then invalid_arg (what ^ ": heartbeat_every must be positive");
  let ck = tg.clock x in
  let budget = Option.value cycle_budget ~default:max_int in
  let suspended = ref None in
  (match prof with Some pf -> Prof.enter pf | None -> ());
  while Option.is_none !suspended && tg.live x do
    if ck.visited >= budget || (match stop with Some r -> !r | None -> false) then begin
      (* Pause at the cycle boundary: nothing of cycle [now] has run, so
         the snapshot resumes it from the top.  The [stop] flag (set by
         the CLI's SIGINT/SIGTERM handler) is a suspension too. *)
      let snap = tg.encode x in
      Domain.DLS.get tg.parked := Some (Ephemeron.K1.make snap x);
      suspended := Some snap
    end
    else begin
      let t = ck.now in
      tg.step x t;
      (* Progress guard against simulator deadlock bugs. *)
      let score = tg.score x in
      if score > ck.last_score then begin
        ck.last_score <- score;
        ck.last_progress_t <- t
      end
      else if t - ck.last_progress_t > 200_000 then
        failwith (what ^ ": no progress for 200000 cycles (deadlock?)");
      (* Idle fast-forward: with no packet in a machine nothing changes
         before the next event.  Remap boundaries are events (a remap
         moves cells even while idle), so a leg visits every boundary a
         cycle-by-cycle loop would. *)
      (ck.now <-
         (if tg.busy x then t + 1
          else
            let e = tg.next_event x t in
            if e = max_int then t + 1 else Int.max (t + 1) e));
      ck.visited <- ck.visited + 1;
      (match (checkpoint_every, on_checkpoint) with
      | Some n, Some emit when ck.visited mod n = 0 -> emit ~cycle:ck.now (tg.encode x)
      | _ -> ());
      match on_heartbeat with
      | Some beat when ck.visited mod heartbeat_every = 0 -> beat ~cycle:ck.now
      | _ -> ()
    end
  done;
  (match prof with Some pf -> Prof.leave pf | None -> ());
  !suspended

let position source ~consumed ~digest ~fold ~what =
  match Psource.consumed source with
  | c when c = consumed -> Ok ()
  | 0 ->
      let sd = Hashing.start () in
      let rec replay i =
        if i = consumed then
          if sd = digest then Ok ()
          else Error (what ^ " does not replay the checkpointed run's packets")
        else
          match Psource.next source with
          | None ->
              Error
                (Printf.sprintf "%s ended after %d packets; snapshot consumed %d" what i consumed)
          | Some input ->
              fold sd input;
              replay (i + 1)
      in
      replay 0
  | c ->
      Error
        (Printf.sprintf
           "%s already consumed %d packets; snapshot expects 0 (replay) or %d (positioned)" what c
           consumed)
