module Vec = Mp5_util.Vec

type mode = Sampled | Full

type phase =
  | Deliver
  | Apply
  | Pop
  | Exec
  | Movement
  | Sweep
  | Source
  | Checkpoint
  | Remap
  | Fault

let n_phases = 10

let phase_index = function
  | Deliver -> 0
  | Apply -> 1
  | Pop -> 2
  | Exec -> 3
  | Movement -> 4
  | Sweep -> 5
  | Source -> 6
  | Checkpoint -> 7
  | Remap -> 8
  | Fault -> 9

let phase_name = function
  | Deliver -> "deliver"
  | Apply -> "apply"
  | Pop -> "pop"
  | Exec -> "exec"
  | Movement -> "movement"
  | Sweep -> "sweep"
  | Source -> "source"
  | Checkpoint -> "checkpoint"
  | Remap -> "remap"
  | Fault -> "fault"

let phase_names =
  [|
    "deliver"; "apply"; "pop"; "exec"; "movement"; "sweep"; "source"; "checkpoint"; "remap";
    "fault";
  |]

let hist_bins = 64

(* CLOCK_MONOTONIC in nanoseconds through bechamel's noalloc stub; the
   Int64 is unboxed across the external, and 63 signed bits of
   nanoseconds (~292 years of uptime) cannot overflow the native int. *)
let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  p_mode : mode;
  max_events : int;
  (* per-phase, per-domain nanosecond totals and span counts; the
     domain dimension (one track per recorder id) grows on demand *)
  mutable totals : int array array;  (* [phase][domain] *)
  mutable counts : int array array;
  hist : int array array;            (* [phase][bucket], domains folded *)
  mutable ndom : int;                (* 1 + highest domain recorded *)
  mutable wall : int;
  mutable entered : int;             (* ns at [enter]; -1 when closed *)
  mutable t0 : int;                  (* event timestamp base; -1 until first enter *)
  (* raw events as parallel int vectors: offset-ns, duration (-1 =
     instant), phase index, domain *)
  ev_ts : int Vec.t;
  ev_dur : int Vec.t;
  ev_phase : int Vec.t;
  ev_dom : int Vec.t;
  mutable ev_dropped : int;
  (* GC deltas accumulated across samples *)
  mutable gc_samples : int;
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable gc_promoted : int;
  mutable last_minor : int;
  mutable last_major : int;
  mutable last_promoted : float;
}

let create ?(mode = Sampled) ?(max_events = 262_144) () =
  let q = Gc.quick_stat () in
  {
    p_mode = mode;
    max_events;
    totals = Array.init n_phases (fun _ -> Array.make 1 0);
    counts = Array.init n_phases (fun _ -> Array.make 1 0);
    hist = Array.make_matrix n_phases hist_bins 0;
    ndom = 1;
    wall = 0;
    entered = -1;
    t0 = -1;
    ev_ts = Vec.create ();
    ev_dur = Vec.create ();
    ev_phase = Vec.create ();
    ev_dom = Vec.create ();
    ev_dropped = 0;
    gc_samples = 0;
    gc_minor = 0;
    gc_major = 0;
    gc_promoted = 0;
    last_minor = q.Gc.minor_collections;
    last_major = q.Gc.major_collections;
    last_promoted = q.Gc.promoted_words;
  }

let gc_sample t =
  let q = Gc.quick_stat () in
  t.gc_samples <- t.gc_samples + 1;
  t.gc_minor <- t.gc_minor + (q.Gc.minor_collections - t.last_minor);
  t.gc_major <- t.gc_major + (q.Gc.major_collections - t.last_major);
  t.gc_promoted <- t.gc_promoted + int_of_float (q.Gc.promoted_words -. t.last_promoted);
  t.last_minor <- q.Gc.minor_collections;
  t.last_major <- q.Gc.major_collections;
  t.last_promoted <- q.Gc.promoted_words

let enter t =
  if t.entered < 0 then begin
    let n = now () in
    if t.t0 < 0 then t.t0 <- n;
    t.entered <- n
  end

let leave t =
  if t.entered >= 0 then begin
    t.wall <- t.wall + (now () - t.entered);
    t.entered <- -1;
    gc_sample t
  end

let ensure_domain t d =
  if d >= t.ndom then begin
    let n = d + 1 in
    t.totals <-
      Array.map
        (fun row ->
          let r = Array.make n 0 in
          Array.blit row 0 r 0 (Array.length row);
          r)
        t.totals;
    t.counts <-
      Array.map
        (fun row ->
          let r = Array.make n 0 in
          Array.blit row 0 r 0 (Array.length row);
          r)
        t.counts;
    t.ndom <- n
  end

let bucket_of d =
  if d <= 1 then 0
  else begin
    let b = ref 0 and v = ref d in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b (hist_bins - 1)
  end

let push_event t ~ts ~dur ~phase ~domain =
  if Vec.length t.ev_ts < t.max_events then begin
    Vec.push t.ev_ts (ts - t.t0);
    Vec.push t.ev_dur dur;
    Vec.push t.ev_phase phase;
    Vec.push t.ev_dom domain
  end
  else t.ev_dropped <- t.ev_dropped + 1

let add t ?(domain = 0) phase ~ts ~dur =
  let dur = if dur < 0 then 0 else dur in
  let p = phase_index phase in
  ensure_domain t domain;
  t.totals.(p).(domain) <- t.totals.(p).(domain) + dur;
  t.counts.(p).(domain) <- t.counts.(p).(domain) + 1;
  let h = t.hist.(p) in
  let b = bucket_of dur in
  h.(b) <- h.(b) + 1;
  push_event t ~ts ~dur ~phase:p ~domain

let record t ?(domain = 0) phase ~t0 = add t ~domain phase ~ts:t0 ~dur:(now () - t0)

let instant t ?(domain = 0) phase =
  ensure_domain t domain;
  push_event t ~ts:(now ()) ~dur:(-1) ~phase:(phase_index phase) ~domain

let wall_ns t = t.wall
let row_total row = Array.fold_left ( + ) 0 row
let total_ns t phase = row_total t.totals.(phase_index phase)

let count t phase = row_total t.counts.(phase_index phase)

(* --- invariants --- *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.entered >= 0 then err "profiler still inside an open leg"
  else if t.wall < 0 then err "negative wall time %d" t.wall
  else begin
    let bad = ref None in
    for p = 0 to n_phases - 1 do
      if !bad = None then begin
        Array.iteri
          (fun d v -> if v < 0 && !bad = None then bad := Some (p, d, v))
          t.totals.(p);
        let mass = row_total t.hist.(p) and cnt = row_total t.counts.(p) in
        if mass <> cnt && !bad = None then bad := Some (p, -1, mass - cnt)
      end
    done;
    match !bad with
    | Some (p, -1, diff) ->
        err "phase %s: histogram mass differs from span count by %d" phase_names.(p) diff
    | Some (p, d, v) -> err "phase %s domain %d: negative total %d" phase_names.(p) d v
    | None -> Ok ()
  end

(* --- JSON snapshot (mp5-prof/1) --- *)

let schema_id = "mp5-prof/1"
let mode_name = function Sampled -> "sampled" | Full -> "full"

let to_json t =
  let phases = ref [] in
  for p = n_phases - 1 downto 0 do
    for d = t.ndom - 1 downto 0 do
      if t.counts.(p).(d) > 0 || t.totals.(p).(d) > 0 then
        phases :=
          Json.Obj
            [
              ("phase", Json.String phase_names.(p));
              ("domain", Json.Int d);
              ("count", Json.Int t.counts.(p).(d));
              ("total_ns", Json.Int t.totals.(p).(d));
            ]
          :: !phases
    done
  done;
  let hist = ref [] in
  for p = n_phases - 1 downto 0 do
    if row_total t.counts.(p) > 0 then
      hist :=
        Json.Obj
          [
            ("phase", Json.String phase_names.(p));
            ( "buckets",
              Json.List (List.map (fun i -> Json.Int i) (Array.to_list t.hist.(p))) );
          ]
        :: !hist
  done;
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ("mode", Json.String (mode_name t.p_mode));
      ("domains", Json.Int t.ndom);
      ("wall_ns", Json.Int t.wall);
      ("phases", Json.List !phases);
      ("hist", Json.List !hist);
      ( "gc",
        Json.Obj
          [
            ("samples", Json.Int t.gc_samples);
            ("minor_collections", Json.Int t.gc_minor);
            ("major_collections", Json.Int t.gc_major);
            ("promoted_words", Json.Int t.gc_promoted);
          ] );
      ( "events",
        Json.Obj
          [
            ("recorded", Json.Int (Vec.length t.ev_ts));
            ("dropped", Json.Int t.ev_dropped);
          ] );
    ]

let json_string t = Json.to_string (to_json t)

let validate_json s =
  let ( let* ) = Result.bind in
  let* j = Json.of_string s in
  let field path v =
    let rec go v = function
      | [] -> Option.some v
      | key :: rest -> Option.bind (Json.member key v) (fun v -> go v rest)
    in
    match Option.bind (go v path) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "missing or non-int field %s" (String.concat "." path))
  in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema_id -> Ok ()
    | Some (Json.String s) -> Error (Printf.sprintf "unknown schema %S" s)
    | _ -> Error "missing schema field"
  in
  let* () =
    match Json.member "mode" j with
    | Some (Json.String ("sampled" | "full")) -> Ok ()
    | Some (Json.String s) -> Error (Printf.sprintf "unknown mode %S" s)
    | _ -> Error "missing mode field"
  in
  let* domains = field [ "domains" ] j in
  let* wall = field [ "wall_ns" ] j in
  let* () = if domains >= 1 then Ok () else Error "domains < 1" in
  let* () = if wall >= 0 then Ok () else Error "negative wall_ns" in
  let known p = Array.exists (( = ) p) phase_names in
  (* span counts per phase, summed across the per-domain entries *)
  let counts = Hashtbl.create 16 in
  let* () =
    match Json.member "phases" j with
    | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            let* () = acc in
            match Json.member "phase" x with
            | Some (Json.String p) when known p ->
                let* c = field [ "count" ] x in
                let* tot = field [ "total_ns" ] x in
                let* d = field [ "domain" ] x in
                if c < 0 || tot < 0 then Error (Printf.sprintf "phase %s: negative counter" p)
                else if d < 0 || d >= domains then
                  Error (Printf.sprintf "phase %s: domain %d out of range" p d)
                else begin
                  Hashtbl.replace counts p
                    (c + Option.value ~default:0 (Hashtbl.find_opt counts p));
                  Ok ()
                end
            | Some (Json.String p) -> Error (Printf.sprintf "unknown phase %S" p)
            | _ -> Error "phases entry without a phase name")
          (Ok ()) xs
    | _ -> Error "missing phases array"
  in
  let* () =
    match Json.member "hist" j with
    | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            let* () = acc in
            match (Json.member "phase" x, Json.member "buckets" x) with
            | Some (Json.String p), Some (Json.List bs) when known p ->
                let* mass =
                  List.fold_left
                    (fun acc b ->
                      let* acc = acc in
                      match Json.to_int b with
                      | Some i when i >= 0 -> Ok (acc + i)
                      | _ -> Error (Printf.sprintf "phase %s: bad histogram bucket" p))
                    (Ok 0) bs
                in
                let c = Option.value ~default:0 (Hashtbl.find_opt counts p) in
                if mass = c then Ok ()
                else
                  Error
                    (Printf.sprintf "phase %s: histogram mass %d <> span count %d" p mass c)
            | Some (Json.String p), _ -> Error (Printf.sprintf "phase %s: missing buckets" p)
            | _ -> Error "hist entry without a phase name")
          (Ok ()) xs
    | _ -> Error "missing hist array"
  in
  let* recorded = field [ "events"; "recorded" ] j in
  let* dropped = field [ "events"; "dropped" ] j in
  let* _ = field [ "gc"; "samples" ] j in
  if recorded < 0 || dropped < 0 then Error "negative event counter" else Ok ()

(* --- Chrome trace-event export --- *)

let to_chrome t =
  let us ns = Json.Float (float_of_int ns /. 1000.0) in
  let events = ref [] in
  for i = Vec.length t.ev_ts - 1 downto 0 do
    let dur = Vec.get t.ev_dur i in
    let common =
      [
        ("name", Json.String phase_names.(Vec.get t.ev_phase i));
        ("cat", Json.String "sim");
        ("pid", Json.Int 1);
        ("tid", Json.Int (Vec.get t.ev_dom i + 1));
        ("ts", us (Vec.get t.ev_ts i));
      ]
    in
    let ev =
      if dur < 0 then
        Json.Obj (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])
      else Json.Obj (common @ [ ("ph", Json.String "X"); ("dur", us dur) ])
    in
    events := ev :: !events
  done;
  let names = ref [] in
  for d = t.ndom - 1 downto 0 do
    names :=
      Json.Obj
        [
          ("name", Json.String "thread_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int (d + 1));
          ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" d)) ]);
        ]
      :: !names
  done;
  Json.Obj [ ("traceEvents", Json.List (!names @ !events)) ]

let chrome_string t = Json.to_string (to_chrome t)

(* --- one-screen report --- *)

let pp fmt t =
  let pct part whole =
    if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  Format.fprintf fmt "profile (%s): wall %.3f ms, %d domain%s@\n" (mode_name t.p_mode)
    (float_of_int t.wall /. 1e6)
    t.ndom
    (if t.ndom = 1 then "" else "s");
  for p = 0 to n_phases - 1 do
    let tot = row_total t.totals.(p) and cnt = row_total t.counts.(p) in
    if cnt > 0 then
      Format.fprintf fmt "  %-10s %10d spans %12.3f ms  %5.1f%% wall@\n" phase_names.(p) cnt
        (float_of_int tot /. 1e6) (pct tot t.wall)
  done;
  Format.fprintf fmt "  gc: %d samples, %d minor, %d major, %d promoted words@\n"
    t.gc_samples t.gc_minor t.gc_major t.gc_promoted;
  if t.ev_dropped > 0 then
    Format.fprintf fmt "  events: %d recorded, %d dropped (raise ?max_events)@\n"
      (Vec.length t.ev_ts) t.ev_dropped
