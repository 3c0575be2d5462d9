type kind = Link_down | Link_delay of int

type event = { from_ : int; until_ : int; link : int; kind : kind }
type plan = { events : event list }

let empty = { events = [] }

(* --- plan text format --- *)

(* Printed events use the same [keyword @cycles link=N ...] order the
   parser accepts, so a pretty-printed plan round-trips. *)
let pp_event ppf e =
  let cycles ppf () =
    if e.from_ = e.until_ then Format.fprintf ppf "@%d" e.from_
    else Format.fprintf ppf "@%d..%d" e.from_ e.until_
  in
  match e.kind with
  | Link_down -> Format.fprintf ppf "link-down %a link=%d" cycles () e.link
  | Link_delay extra ->
      Format.fprintf ppf "link-delay %a link=%d extra=%d" cycles () e.link extra

let pp_plan ppf p =
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Format.fprintf ppf "; ";
      pp_event ppf e)
    p.events

let to_string p = Format.asprintf "%a" pp_plan p

exception Parse_error of string

(* One statement: a keyword, an "@C" or "@A..B" cycle spec, and key=value
   arguments — e.g. "link-down @500..900 link=3".  Statements separate
   on newlines or ';', '#' comments run to end of line; the grammar is
   the [Fault] plan grammar with link events. *)
let parse_statement ~err words =
  let keyword, rest = match words with [] -> assert false | w :: r -> (w, r) in
  let cycles = ref None in
  let args = ref [] in
  List.iter
    (fun w ->
      if String.length w > 0 && w.[0] = '@' then begin
        let spec = String.sub w 1 (String.length w - 1) in
        let a, b =
          match String.index_opt spec '.' with
          | Some i when i + 1 < String.length spec && spec.[i + 1] = '.' ->
              (String.sub spec 0 i, String.sub spec (i + 2) (String.length spec - i - 2))
          | _ -> (spec, spec)
        in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> cycles := Some (a, b)
        | _ -> err (Printf.sprintf "bad cycle spec %S" w)
      end
      else
        match String.index_opt w '=' with
        | Some i ->
            let k = String.sub w 0 i in
            let v = String.sub w (i + 1) (String.length w - i - 1) in
            args := (k, v) :: !args
        | None -> err (Printf.sprintf "expected key=value, got %S" w))
    rest;
  let from_, until_ =
    match !cycles with
    | Some (a, b) ->
        if a < 0 || b < a then err "cycle window must satisfy 0 <= A <= B";
        (a, b)
    | None ->
        err "missing @cycle spec";
        assert false
  in
  let int_arg name =
    match List.assoc_opt name !args with
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None ->
            err (Printf.sprintf "bad %s=%S" name v);
            assert false)
    | None ->
        err (Printf.sprintf "missing %s=" name);
        assert false
  in
  let link = int_arg "link" in
  if link < 0 then err "link id must be >= 0";
  match keyword with
  | "link-down" -> { from_; until_; link; kind = Link_down }
  | "link-delay" ->
      let extra = int_arg "extra" in
      if extra <= 0 then err "extra= must be positive";
      { from_; until_; link; kind = Link_delay extra }
  | kw ->
      err (Printf.sprintf "unknown link event %S" kw);
      assert false

let parse text =
  let events = ref [] in
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.split_on_char ';' line
    |> List.iter (fun stmt ->
           let words =
             String.split_on_char ' ' stmt
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun w -> w <> "")
           in
           match words with
           | [] -> ()
           | _ ->
               let err msg =
                 raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))
               in
               events := parse_statement ~err words :: !events)
  in
  match
    String.split_on_char '\n' text
    |> List.iteri (fun i line -> parse_line (i + 1) line)
  with
  | () -> Ok { events = List.rev !events }
  | exception Parse_error msg -> Error msg

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match parse text with Ok p -> Ok p | Error msg -> Error (path ^ ": " ^ msg))

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
