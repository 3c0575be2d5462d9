(* In-memory span recorder for the traced run.

   A span brackets one call into a layer's public function from the
   benchmark driver: name, monotonic start and end (ns), the enclosing
   span, the op it belongs to, and the [Gc.counters] deltas across the
   call.  Spans are kept in memory and written out once, at exit, as
   Chrome trace-event JSON (loadable in Perfetto) plus a self-time table
   per layer.  A layer's self time is its span's duration minus the part
   covered by its child spans; the [op] span's self time is whatever the
   driver did between layer calls — the unattributed remainder. *)

module Json = Mp5_obs.Json

type span = {
  name : string;
  id : int;
  parent : int;  (* -1 for a root span *)
  op : int;
  t0 : int;
  t1 : int;
  alloc_words : float;  (* minor + major - promoted *)
  promoted_words : float;
}

type t = {
  mutable spans : span list;  (* most recent first *)
  mutable stack : int list;  (* ids of open spans, innermost first *)
  mutable next_id : int;
  mutable op : int;
}

let create () = { spans = []; stack = []; next_id = 0; op = -1 }

let set_op t op = t.op <- op

let alloc_of (minor, promoted, major) = minor +. major -. promoted
let promoted_of (_, promoted, _) = promoted

(* [with_ t name f] records a span around [f ()]; with no recorder it is
   just [f ()], so the untraced path pays nothing. *)
let with_ t name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let g0 = Gc.counters () in
      let t0 = Mp5_obs.Prof.now () in
      let finish () =
        let t1 = Mp5_obs.Prof.now () in
        let g1 = Gc.counters () in
        t.stack <- List.tl t.stack;
        t.spans <-
          {
            name;
            id;
            parent;
            op = t.op;
            t0;
            t1;
            alloc_words = alloc_of g1 -. alloc_of g0;
            promoted_words = promoted_of g1 -. promoted_of g0;
          }
          :: t.spans
      in
      Fun.protect ~finally:finish f

type layer = {
  l_name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable words : float;
  mutable promoted : float;
}

(* Per-name aggregates, in first-seen order. *)
let layers t =
  let spans = List.rev t.spans in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt by_name s.name with
        | Some l -> l
        | None ->
            let l =
              { l_name = s.name; count = 0; total_ns = 0; self_ns = 0; words = 0.; promoted = 0. }
            in
            Hashtbl.add by_name s.name l;
            order := l :: !order;
            l
      in
      let dur = s.t1 - s.t0 in
      l.count <- l.count + 1;
      l.total_ns <- l.total_ns + dur;
      l.self_ns <- l.self_ns + dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id);
      l.words <- l.words +. s.alloc_words;
      l.promoted <- l.promoted +. s.promoted_words)
    spans;
  List.rev !order

let find layers name =
  List.find_opt (fun l -> l.l_name = name) layers

(* Self-time table: one row per layer, self time as a share of the
   summed duration of the [root] spans (the ops). *)
let table layers ~root =
  let op_ns = match find layers root with Some l -> l.total_ns | None -> 0 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %8s %12s %12s %8s %14s\n" "layer" "spans" "total_ms" "self_ms"
       "self_%" "alloc_words");
  List.iter
    (fun l ->
      let name = if l.l_name = root then root ^ " (unattributed)" else l.l_name in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %8d %12.3f %12.3f %8.2f %14.0f\n" name l.count
           (float_of_int l.total_ns /. 1e6)
           (float_of_int l.self_ns /. 1e6)
           (if op_ns = 0 then 0. else 100. *. float_of_int l.self_ns /. float_of_int op_ns)
           l.words))
    layers;
  Buffer.contents buf

let chrome t =
  let spans = List.rev t.spans in
  let base = match spans with s :: _ -> s.t0 | [] -> 0 in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", us (s.t0 - base));
        ("dur", us (s.t1 - s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("op", Json.Int s.op);
              ("alloc_words", Json.Float s.alloc_words);
              ("promoted_words", Json.Float s.promoted_words);
            ] );
      ]
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List (List.map event spans)); ("displayTimeUnit", Json.String "ns") ])
