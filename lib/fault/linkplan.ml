type kind = Link_down | Link_delay of int

type event = { from_ : int; until_ : int; link : int; kind : kind }
type plan = { events : event list }

let empty = { events = [] }

(* --- plan text format --- *)

(* Printed events use the same [keyword @cycles link=N ...] order the
   parser accepts, so a pretty-printed plan round-trips. *)
let pp_event ppf e =
  let cycles = (e.from_, e.until_) in
  match e.kind with
  | Link_down -> Format.fprintf ppf "link-down %a link=%d" Plan_syntax.pp_cycles cycles e.link
  | Link_delay extra ->
      Format.fprintf ppf "link-delay %a link=%d extra=%d" Plan_syntax.pp_cycles cycles e.link
        extra

let pp_plan ppf p =
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Format.fprintf ppf "; ";
      pp_event ppf e)
    p.events

let to_string p = Format.asprintf "%a" pp_plan p

(* One event statement: the window is read before [link=] and the
   kind's own arguments. *)
let event st =
  let module P = Plan_syntax in
  let a = P.args st in
  let event kind =
    let from_, until_ = P.span a in
    if from_ < 0 then P.fail st "cycle window must satisfy 0 <= A <= B";
    let link = P.int a "link" in
    if link < 0 then P.fail st "link id must be >= 0";
    { from_; until_; link; kind = kind () }
  in
  match st.P.keyword with
  | "link-down" -> event (fun () -> Link_down)
  | "link-delay" ->
      event (fun () ->
          let extra = P.int a "extra" in
          if extra <= 0 then P.fail st "extra= must be positive";
          Link_delay extra)
  | kw -> P.fail st (Printf.sprintf "unknown link event %S" kw)

let parse text =
  Plan_syntax.parse text ~init:[] (fun events st -> event st :: events)
  |> Result.map (fun events -> { events = List.rev events })

let load ~path = Plan_syntax.load ~path parse

let validate p ~n_links =
  let rec go = function
    | [] -> Ok ()
    | e :: rest ->
        if e.link >= n_links then
          Error
            (Printf.sprintf "link plan: %s: link %d out of range (fabric has %d links)"
               (Format.asprintf "%a" pp_event e)
               e.link n_links)
        else go rest
  in
  go p.events

(* --- runtime queries ---

   The plan is stateless under simulation (no RNG draws, no edges to
   latch), so the runtime is the plan itself and every query is a scan
   over the event list.  Plans are small (tens of events) and queries
   run once per send / once per idle jump, so the scan never shows up
   next to a machine cycle.  The scans are plain recursions over the
   list, comparing ints only: a query allocates nothing, and on an empty
   plan it is one test. *)

let rec down_in events ~now ~link =
  match events with
  | [] -> false
  | { from_; until_; link = l; kind = Link_down } :: rest ->
      (l = link && from_ <= now && now <= until_) || down_in rest ~now ~link
  | { kind = Link_delay _; _ } :: rest -> down_in rest ~now ~link

let is_down p ~now ~link = down_in p.events ~now ~link

let rec delay_in events ~now ~link acc =
  match events with
  | [] -> acc
  | { from_; until_; link = l; kind = Link_delay extra } :: rest ->
      let acc = if l = link && from_ <= now && now <= until_ then acc + extra else acc in
      delay_in rest ~now ~link acc
  | { kind = Link_down; _ } :: rest -> delay_in rest ~now ~link acc

let extra_delay p ~now ~link = delay_in p.events ~now ~link 0

(* Next cycle > now at which some event's activity changes: its opening
   edge [from_] or the first quiet cycle [until_ + 1]. *)
let rec edge_in events ~now acc =
  match events with
  | [] -> acc
  | e :: rest ->
      let acc = if e.from_ > now && e.from_ < acc then e.from_ else acc in
      let acc = if e.until_ + 1 > now && e.until_ + 1 < acc then e.until_ + 1 else acc in
      edge_in rest ~now acc

let next_edge p ~now = edge_in p.events ~now max_int
