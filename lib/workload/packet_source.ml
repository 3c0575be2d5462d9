module Machine = Mp5_banzai.Machine

exception Error of string

(* One-slot lookahead over a pull closure.  [peek] fills the slot, [next]
   drains it; once the closure returns [None] the source is permanently
   exhausted ([eof]), so a well-behaved closure is only ever pulled once
   past its end.  A [live] source never latches [eof]: its backing store
   can refill between pulls (the fabric driver pushes inter-switch
   deliveries into a node's queue each cycle), so an empty pull means
   "nothing right now", not "nothing ever". *)
type t = {
  pull : unit -> Machine.input option;
  mutable cached : Machine.input option;
  mutable eof : bool;
  mutable consumed : int;
  mutable last_time : int;
  total : int option;
  live : bool;
}

let of_pull ?total pull =
  { pull; cached = None; eof = false; consumed = 0; last_time = 0; total; live = false }

let of_array a =
  let i = ref 0 in
  let n = Array.length a in
  of_pull ~total:n (fun () ->
      if !i >= n then None
      else begin
        let p = a.(!i) in
        incr i;
        Some p
      end)

let of_queue ?(consumed = 0) ?(last_time = 0) q =
  {
    pull = (fun () -> Queue.take_opt q);
    cached = None;
    eof = false;
    consumed;
    last_time;
    total = None;
    live = true;
  }

let peek t =
  match t.cached with
  | Some _ as r -> r
  | None ->
      if t.eof then None
      else begin
        let r = t.pull () in
        (match r with
        | None -> if not t.live then t.eof <- true
        | Some _ -> t.cached <- r);
        r
      end

let next t =
  match peek t with
  | None -> None
  | Some p as r ->
      t.cached <- None;
      t.consumed <- t.consumed + 1;
      t.last_time <- p.Machine.time;
      r

let consumed t = t.consumed
let total_hint t = t.total
let last_time t = t.last_time
let buffered t = match t.cached with Some _ -> 1 | None -> 0
let lookahead t = t.cached
