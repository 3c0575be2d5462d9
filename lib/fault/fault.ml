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
  if e.from_ = e.until_ then
    Format.fprintf ppf "%s @%d%a" (keyword e.kind) e.from_ pp_args e.kind
  else Format.fprintf ppf "%s @%d..%d%a" (keyword e.kind) e.from_ e.until_ pp_args e.kind

let pp_plan ppf p =
  Format.fprintf ppf "seed %d" p.seed;
  List.iter (fun e -> Format.fprintf ppf "; %a" pp_event e) p.events

(* One statement: a keyword followed by an "@C" or "@A..B" cycle spec and
   key=value arguments, e.g. "down @1000 pipe=2".  Statements are
   separated by newlines or ';', '#' comments run to end of line. *)
let parse_statement ~err words =
  let cycles = ref None in
  let args = ref [] in
  let keyword, rest =
    match words with [] -> assert false | w :: rest -> (w, rest)
  in
  List.iter
    (fun w ->
      if String.length w > 0 && w.[0] = '@' then begin
        let spec = String.sub w 1 (String.length w - 1) in
        let range =
          match String.index_opt spec '.' with
          | Some i
            when i + 1 < String.length spec && spec.[i + 1] = '.' ->
              let a = String.sub spec 0 i in
              let b = String.sub spec (i + 2) (String.length spec - i - 2) in
              (a, b)
          | _ -> (spec, spec)
        in
        match range with
        | a, b -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> cycles := Some (a, b)
            | _ -> err (Printf.sprintf "bad cycle spec %S" w))
      end
      else
        match String.index_opt w '=' with
        | Some i ->
            args :=
              (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1)) :: !args
        | None -> err (Printf.sprintf "expected key=value, got %S" w))
    rest;
  let int_arg name =
    match List.assoc_opt name !args with
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> err (Printf.sprintf "argument %s=%S is not an integer" name v); 0)
    | None -> err (Printf.sprintf "missing argument %s=" name); 0
  in
  let float_arg name =
    match List.assoc_opt name !args with
    | Some v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None -> err (Printf.sprintf "argument %s=%S is not a number" name v); 0.0)
    | None -> err (Printf.sprintf "missing argument %s=" name); 0.0
  in
  let at () =
    match !cycles with
    | Some (a, b) ->
        if a <> b then err "expected a single cycle (@C), got a window";
        a
    | None -> err "missing cycle spec (@C)"; 0
  in
  let span () =
    match !cycles with
    | Some (a, b) ->
        if a > b then err (Printf.sprintf "empty window @%d..%d" a b);
        (a, b)
    | None -> err "missing cycle spec (@A..B)"; (0, 0)
  in
  match keyword with
  | "down" -> point ~at:(at ()) (Pipe_down (int_arg "pipe"))
  | "up" -> point ~at:(at ()) (Pipe_up (int_arg "pipe"))
  | "fifo-loss" ->
      point ~at:(at ()) (Fifo_loss { stage = int_arg "stage"; pipe = int_arg "pipe" })
  | "stall" ->
      let from_, until_ = span () in
      window ~from_ ~until_ (Stall { stage = int_arg "stage"; pipe = int_arg "pipe" })
  | "xbar-drop" ->
      let from_, until_ = span () in
      let p = float_arg "p" in
      if p < 0.0 || p > 1.0 then err (Printf.sprintf "probability p=%g out of [0,1]" p);
      window ~from_ ~until_ (Xbar_drop p)
  | "xbar-dup" ->
      let from_, until_ = span () in
      let p = float_arg "p" in
      if p < 0.0 || p > 1.0 then err (Printf.sprintf "probability p=%g out of [0,1]" p);
      window ~from_ ~until_ (Xbar_dup p)
  | "phantom-delay" ->
      let from_, until_ = span () in
      let extra = int_arg "extra" in
      if extra < 0 then err "extra must be non-negative";
      window ~from_ ~until_ (Phantom_delay extra)
  | kw -> err (Printf.sprintf "unknown fault event %S" kw); point ~at:0 (Pipe_up 0)

exception Parse_error of string

let parse s =
  let seed = ref 0 in
  let events = ref [] in
  try
    String.split_on_char '\n' s
    |> List.iteri (fun lineno line ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           String.split_on_char ';' line
           |> List.iter (fun stmt ->
                  let err msg =
                    raise (Parse_error (Printf.sprintf "line %d: %s" (lineno + 1) msg))
                  in
                  let words =
                    String.split_on_char ' ' stmt
                    |> List.concat_map (String.split_on_char '\t')
                    |> List.filter (fun w -> w <> "")
                  in
                  match words with
                  | [] -> ()
                  | [ "seed"; v ] -> (
                      match int_of_string_opt v with
                      | Some i -> seed := i
                      | None -> err (Printf.sprintf "bad seed %S" v))
                  | "seed" :: _ -> err "seed takes one integer"
                  | _ -> events := parse_statement ~err words :: !events));
    Ok { seed = !seed; events = List.rev !events }
  with Parse_error msg -> Error msg

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match parse (really_input_string ic (in_channel_length ic)) with
          | Ok p -> Ok p
          | Error e -> Error (Printf.sprintf "%s: %s" path e))

let validate plan ~k ~stages =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_pipe p = p >= 0 && p < k in
  let check_stage s = s >= 0 && s < stages in
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> (
        if e.from_ < 0 || e.until_ < e.from_ then
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
              if p >= 0.0 && p <= 1.0 then go rest
              else err "probability %g out of [0,1]" p
          | Phantom_delay d -> if d >= 0 then go rest else err "negative phantom delay %d" d)
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
