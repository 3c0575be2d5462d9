module Rng = Mp5_util.Rng

type kind =
  | Pipe_down of int
  | Pipe_up of int
  | Fifo_loss of { stage : int; pipe : int }
  | Stall of { stage : int; pipe : int }
  | Xbar_drop of float
  | Xbar_dup of float
  | Phantom_delay of int

type event = { from_ : int; until_ : int; kind : kind }
type plan = { seed : int; events : event list }

let empty = { seed = 0; events = [] }
let is_empty p = p.events = []

let point ~at kind = { from_ = at; until_ = at; kind }
let window ~from_ ~until_ kind = { from_; until_; kind }

(* --- plan text format --- *)

(* Printed events use the same [keyword @cycles key=value] order the
   parser accepts, so a pretty-printed plan round-trips. *)
let keyword = function
  | Pipe_down _ -> "down"
  | Pipe_up _ -> "up"
  | Fifo_loss _ -> "fifo-loss"
  | Stall _ -> "stall"
  | Xbar_drop _ -> "xbar-drop"
  | Xbar_dup _ -> "xbar-dup"
  | Phantom_delay _ -> "phantom-delay"

let pp_args ppf = function
  | Pipe_down p | Pipe_up p -> Format.fprintf ppf " pipe=%d" p
  | Fifo_loss { stage; pipe } | Stall { stage; pipe } ->
      Format.fprintf ppf " stage=%d pipe=%d" stage pipe
  | Xbar_drop p | Xbar_dup p -> Format.fprintf ppf " p=%g" p
  | Phantom_delay d -> Format.fprintf ppf " extra=%d" d

let pp_event ppf e =
  Format.fprintf ppf "%s %a%a" (keyword e.kind) Plan_syntax.pp_cycles (e.from_, e.until_)
    pp_args e.kind

let pp_plan ppf p =
  Format.fprintf ppf "seed %d" p.seed;
  List.iter (fun e -> Format.fprintf ppf "; %a" pp_event e) p.events

(* Bounds a snapshot's fault section holds a plan to (see [Sim]); a
   plan that validates must also resume. *)
let max_cycle = 1 lsl 60
let max_phantom_delay = (1 lsl 16) - 1
let valid_probability p = p >= 0.0 && p <= 1.0

(* One event statement: the cycle spec is read before the arguments,
   and an argument the event does not take fails after them. *)
let event st =
  let module P = Plan_syntax in
  let a = P.args st in
  let at kind =
    let at = P.at a in
    let e = point ~at (kind ()) in
    P.close a;
    e
  in
  let span kind =
    let from_, until_ = P.span a in
    let e = window ~from_ ~until_ (kind ()) in
    P.close a;
    e
  in
  let pipe () = P.int a "pipe" in
  let stage_pipe () =
    let stage = P.int a "stage" in
    (stage, pipe ())
  in
  let probability () =
    let p = P.float a "p" in
    if not (valid_probability p) then
      P.fail st (Printf.sprintf "probability p=%g out of [0,1]" p);
    p
  in
  match st.P.keyword with
  | "down" -> at (fun () -> Pipe_down (pipe ()))
  | "up" -> at (fun () -> Pipe_up (pipe ()))
  | "fifo-loss" ->
      at (fun () ->
          let stage, pipe = stage_pipe () in
          Fifo_loss { stage; pipe })
  | "stall" ->
      span (fun () ->
          let stage, pipe = stage_pipe () in
          Stall { stage; pipe })
  | "xbar-drop" -> span (fun () -> Xbar_drop (probability ()))
  | "xbar-dup" -> span (fun () -> Xbar_dup (probability ()))
  | "phantom-delay" ->
      span (fun () ->
          let extra = P.int a "extra" in
          if extra < 0 then P.fail st "extra must be non-negative";
          Phantom_delay extra)
  | kw -> P.fail st (Printf.sprintf "unknown fault event %S" kw)

let parse text =
  Plan_syntax.parse text ~init:empty (fun plan st ->
      match (st.Plan_syntax.keyword, st.words) with
      | "seed", [ v ] -> (
          match int_of_string_opt v with
          | Some seed -> { plan with seed }
          | None -> Plan_syntax.fail st (Printf.sprintf "bad seed %S" v))
      | "seed", _ -> Plan_syntax.fail st "seed takes one integer"
      | _ -> { plan with events = event st :: plan.events })
  |> Result.map (fun plan -> { plan with events = List.rev plan.events })

let load ~path = Plan_syntax.load ~path parse

let validate plan ~k ~stages =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_pipe p = p >= 0 && p < k in
  let check_stage s = s >= 0 && s < stages in
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> (
        if e.from_ < 0 || e.until_ < e.from_ || e.until_ > max_cycle then
          err "event %s: bad cycle range" (Format.asprintf "%a" pp_event e)
        else
          match e.kind with
          | Pipe_down p | Pipe_up p ->
              if check_pipe p then go rest
              else err "pipeline %d out of range (k = %d)" p k
          | Fifo_loss { stage; pipe } | Stall { stage; pipe } ->
              if not (check_pipe pipe) then
                err "pipeline %d out of range (k = %d)" pipe k
              else if not (check_stage stage) then
                err "stage %d out of range (%d stages)" stage stages
              else go rest
          | Xbar_drop p | Xbar_dup p ->
              if valid_probability p then go rest else err "probability %g out of [0,1]" p
          | Phantom_delay d ->
              if d >= 0 && d <= max_phantom_delay then go rest
              else err "phantom delay %d out of range [0, %d]" d max_phantom_delay)
  in
  go plan.events

(* --- runtime --- *)

type action = Down of int | Up of int | Loss of int * int

type t = {
  k : int;
  rng : Rng.t;
  events : event array;            (* sorted by from_, stable *)
  mutable next_i : int;            (* first event not yet started *)
  mutable active : event list;     (* started windows, not yet expired *)
  mutable next_edge : int;         (* next cycle the window state changes *)
  down : bool array;
  mutable n_down : int;
  stalled : bool array array;      (* [stage][pipe] *)
  mutable drop_p : float;
  mutable dup_p : float;
  mutable delay : int;
  mutable applied : int;           (* events whose start has been processed *)
}

let start plan ~k ~stages =
  (match validate plan ~k ~stages with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault.start: " ^ e));
  let events = Array.of_list plan.events in
  (* Stable by construction: Array.sort is not stable, so sort an index
     array by (from_, original position). *)
  let order = Array.init (Array.length events) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare events.(a).from_ events.(b).from_ in
      if c <> 0 then c else compare a b)
    order;
  let events = Array.map (fun i -> events.(i)) order in
  {
    k;
    rng = Rng.create plan.seed;
    events;
    next_i = 0;
    active = [];
    next_edge = (if Array.length events = 0 then max_int else events.(0).from_);
    down = Array.make k false;
    n_down = 0;
    stalled = Array.make_matrix stages k false;
    drop_p = 0.0;
    dup_p = 0.0;
    delay = 0;
    applied = 0;
  }

let next_edge t = t.next_edge
let is_down t p = t.down.(p)
let any_down t = t.n_down > 0
let n_down t = t.n_down
let down_mask t = t.down
let is_stalled t ~stage ~pipe = t.stalled.(stage).(pipe)
let phantom_delay t = t.delay
let applied t = t.applied

(* Per-transfer coin flips: a draw is only taken while the corresponding
   window is active, so fast-forwarded idle stretches never perturb the
   stream.  Order fixed at the call sites: drop is decided before dup. *)
let drop_transfer t = t.drop_p > 0.0 && Rng.float t.rng 1.0 < t.drop_p
let dup_transfer t = t.dup_p > 0.0 && Rng.float t.rng 1.0 < t.dup_p

let recompute_windows t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) t.stalled;
  t.drop_p <- 0.0;
  t.dup_p <- 0.0;
  t.delay <- 0;
  List.iter
    (fun e ->
      match e.kind with
      | Stall { stage; pipe } -> t.stalled.(stage).(pipe) <- true
      | Xbar_drop p -> t.drop_p <- max t.drop_p p
      | Xbar_dup p -> t.dup_p <- max t.dup_p p
      | Phantom_delay d -> t.delay <- max t.delay d
      | Pipe_down _ | Pipe_up _ | Fifo_loss _ -> ())
    t.active

let recompute_edge t ~now =
  let e = ref max_int in
  if t.next_i < Array.length t.events then e := t.events.(t.next_i).from_;
  List.iter (fun ev -> if ev.until_ + 1 > now then e := min !e (ev.until_ + 1)) t.active;
  t.next_edge <- !e

(* --- checkpointing ---

   The serializable residue of a runtime is tiny: the RNG words, how far
   the sorted event array has been consumed, and which window events are
   currently active (as indices into that array — the sort is
   deterministic, so indices are stable across save/restore).  Everything
   else ([down]/[n_down], the stall matrix, the probabilities, the next
   edge) is recomputed by replaying the consumed prefix. *)

let index_of_event t e =
  let rec go i = if t.events.(i) == e then i else go (i + 1) in
  go 0

let codec io t ~now =
  let module C = Mp5_util.Codec in
  C.fixed io ~n:4 ~mismatch:"snapshot: fault RNG state size does not match";
  let words = Rng.state t.rng in
  Array.iteri (fun i w -> words.(i) <- C.i64 io ~what:"fault RNG word" w) words;
  let next_i = C.int io ~lo:0 ~hi:(Array.length t.events) ~what:"fault event cursor" t.next_i in
  let active =
    C.int_array_in io C.Xref ~lo:0 ~hi:(next_i - 1) ~what:"active fault window"
      (Array.of_list (List.map (index_of_event t) t.active))
  in
  if not (C.reading io) then t
  else begin
    let t = { t with rng = Rng.of_state words } in
    (* Replay the down/up transitions of the consumed prefix; the
       conditional logic matches [on_cycle]'s, so the final flags equal
       the live runtime's at the checkpoint. *)
    for i = 0 to next_i - 1 do
      match t.events.(i).kind with
      | Pipe_down p ->
          if not t.down.(p) then begin
            t.down.(p) <- true;
            t.n_down <- t.n_down + 1
          end
      | Pipe_up p ->
          if t.down.(p) then begin
            t.down.(p) <- false;
            t.n_down <- t.n_down - 1
          end
      | Fifo_loss _ | Stall _ | Xbar_drop _ | Xbar_dup _ | Phantom_delay _ -> ()
    done;
    t.next_i <- next_i;
    t.applied <- next_i;
    t.active <- Array.to_list (Array.map (fun i -> t.events.(i)) active);
    recompute_windows t;
    recompute_edge t ~now;
    t
  end

let on_cycle t ~now =
  if now < t.next_edge then []
  else begin
    let actions = ref [] in
    (* Start every event whose window has opened (catch-up over
       fast-forwarded cycles included). *)
    while
      t.next_i < Array.length t.events && t.events.(t.next_i).from_ <= now
    do
      let e = t.events.(t.next_i) in
      t.next_i <- t.next_i + 1;
      t.applied <- t.applied + 1;
      match e.kind with
      | Pipe_down p ->
          if not t.down.(p) then begin
            if t.n_down + 1 >= t.k then
              failwith "Fault: plan would take down every pipeline";
            t.down.(p) <- true;
            t.n_down <- t.n_down + 1;
            actions := Down p :: !actions
          end
      | Pipe_up p ->
          if t.down.(p) then begin
            t.down.(p) <- false;
            t.n_down <- t.n_down - 1;
            actions := Up p :: !actions
          end
      | Fifo_loss { stage; pipe } -> actions := Loss (stage, pipe) :: !actions
      | Stall _ | Xbar_drop _ | Xbar_dup _ | Phantom_delay _ ->
          (* A window that expired entirely inside a fast-forwarded idle
             stretch had nothing to act on; only still-open windows
             activate. *)
          if e.until_ >= now then t.active <- e :: t.active
    done;
    t.active <- List.filter (fun e -> e.until_ >= now) t.active;
    recompute_windows t;
    recompute_edge t ~now;
    List.rev !actions
  end
