type t = {
  cycles : int array;
  rows : (int * int) array;
  cells : string array array;
}

let letter seq =
  let base = Char.chr (Char.code 'A' + (seq mod 26)) in
  if seq < 26 then String.make 1 base
  else Printf.sprintf "%c%d" base (seq / 26)

let lower s = String.lowercase_ascii s

module Etrace = Mp5_obs.Trace

(* A (stage, pipeline) as the event trace rebuilds it: the packet that
   entered the slot this cycle, and the queued entries (timestamp, packet,
   data?) in the FIFO's pop order. *)
type cell = { mutable slot : int; mutable queue : (int * int * bool) list }

let capture ?(max_cycles = 24) ?metrics ?events params prog trace =
  let events = match events with Some e -> e | None -> Etrace.create () in
  let result = Sim.run ?metrics ~events params prog trace in
  if Etrace.truncated events then invalid_arg "Timeline.capture: the event trace overflowed";
  let n_stages = Array.length prog.Transform.config.Mp5_banzai.Config.stages in
  let k = params.Sim.k in
  let first = ref max_int and last = ref min_int in
  Etrace.iter
    (fun ~kind ~cycle ~seq:_ ~stage:_ ~pipe:_ ~aux:_ ->
      match kind with
      | Etrace.Arrival -> first := min !first cycle
      | Etrace.Deliver | Etrace.Drop -> last := max !last cycle
      | _ -> ())
    events;
  let cycles = Array.init (max 0 (min max_cycles (!last - !first + 1))) (fun i -> !first + i) in
  (* Stage 0 (address resolution) is left out, like the paper's figures. *)
  let rows =
    Array.concat (List.init k (fun p -> Array.init (n_stages - 1) (fun s -> (p, s + 1))))
  in
  let state = Array.init n_stages (fun _ -> Array.init k (fun _ -> { slot = -1; queue = [] })) in
  let cells = Array.map (fun _ -> Array.make (Array.length cycles) "") rows in
  let render_cell c =
    let slot = if c.slot < 0 then "" else letter c.slot in
    match c.queue with
    | [] -> slot
    | q ->
        let entry (_, seq, data) = if data then letter seq else lower (letter seq) in
        Printf.sprintf "%s[%s]" slot (String.concat "" (List.map entry q))
  in
  (* Columns are rendered as the trace moves past their cycle: every
     event of a cycle that changes a slot or a queue precedes the pops,
     where the column's picture is taken. *)
  let col = ref 0 in
  let render_before cycle =
    while !col < Array.length cycles && cycles.(!col) < cycle do
      Array.iteri (fun r (p, s) -> cells.(r).(!col) <- render_cell state.(s).(p)) rows;
      Array.iter (Array.iter (fun c -> c.slot <- -1)) state;
      incr col
    done
  in
  let remove seq c = c.queue <- List.filter (fun (_, s, _) -> s <> seq) c.queue in
  let push ts seq data c = c.queue <- List.merge compare c.queue [ (ts, seq, data) ] in
  Etrace.iter
    (fun ~kind ~cycle ~seq ~stage ~pipe ~aux ->
      render_before cycle;
      match kind with
      | Etrace.Stage_entry ->
          (* popped (aux 0), passed through (1) or a duplicate (2) *)
          let c = state.(stage).(pipe) in
          c.slot <- seq;
          remove seq c
      | Etrace.Phantom_deliver when aux = 0 -> push seq seq false state.(stage).(pipe)
      | Etrace.Crossbar ->
          (* The data packet takes its phantom's place, timestamped by its
             id, or without D4 queues by its arrival at the stage, as the
             FIFO timestamps it. *)
          let c = state.(stage).(pipe) in
          remove seq c;
          push (if params.Sim.mode = Sim.No_d4 then (cycle lsl 22) lor seq else seq) seq true c
      | Etrace.Drop -> Array.iter (Array.iter (remove seq)) state
      | _ -> ())
    events;
  render_before max_int;
  ({ cycles; rows; cells }, result)

let render t =
  let buf = Buffer.create 1024 in
  let n_cols = Array.length t.cycles in
  let width = ref 6 in
  Array.iter (Array.iter (fun c -> width := max !width (String.length c + 1))) t.cells;
  let pad s = Printf.sprintf "%-*s" !width s in
  Buffer.add_string buf (pad "");
  Array.iter (fun c -> Buffer.add_string buf (pad (Printf.sprintf "t=%d" c))) t.cycles;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i (p, s) ->
      if i > 0 && fst t.rows.(i - 1) <> p then Buffer.add_char buf '\n';
      Buffer.add_string buf (pad (Printf.sprintf "P%d/S%d" p s));
      for c = 0 to n_cols - 1 do
        Buffer.add_string buf (pad t.cells.(i).(c))
      done;
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf
