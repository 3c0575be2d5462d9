type drop_cause = Fifo_full | No_phantom | Starved | Pipeline_down | Injected

let lat_bins = 512
let occ_bins = 64

type t = {
  m_stages : int;
  m_k : int;
  mutable m_cycles : int;
  m_busy : int array;
  m_idle : int array;
  m_blocked : int array;
  m_claimed : int array;
  m_occ_hwm : int array;
  m_occ_hist : int array;
  m_xfer : int array;
  m_xfer_cross : int array;
  mutable m_arrivals : int;
  mutable m_delivered : int;
  mutable m_ecn_marked : int;
  mutable m_drop_fifo_full : int;
  mutable m_drop_no_phantom : int;
  mutable m_drop_starved : int;
  mutable m_drop_pipeline_down : int;
  mutable m_drop_injected : int;
  mutable m_fault_events : int;
  mutable m_fault_stall_cycles : int;
  mutable m_pipe_down_cycles : int;
  mutable m_evac_moves : int;
  mutable m_dup_packets : int;
  mutable m_phantom_scheduled : int;
  mutable m_phantom_delivered : int;
  mutable m_phantom_doomed : int;
  mutable m_phantom_dropped : int;
  mutable m_remap_periods : int;
  mutable m_remap_moves : int;
  mutable m_imb_before : int;
  mutable m_imb_after : int;
  m_lat_hist : int array;
  mutable m_lat_count : int;
  mutable m_lat_sum : int;
  mutable m_lat_max : int;
}

let create ~stages ~k =
  if stages <= 0 || k <= 0 then invalid_arg "Metrics.create: stages and k must be positive";
  let slots = stages * k in
  {
    m_stages = stages;
    m_k = k;
    m_cycles = 0;
    m_busy = Array.make slots 0;
    m_idle = Array.make slots 0;
    m_blocked = Array.make slots 0;
    m_claimed = Array.make slots 0;
    m_occ_hwm = Array.make slots 0;
    m_occ_hist = Array.make occ_bins 0;
    m_xfer = Array.make stages 0;
    m_xfer_cross = Array.make stages 0;
    m_arrivals = 0;
    m_delivered = 0;
    m_ecn_marked = 0;
    m_drop_fifo_full = 0;
    m_drop_no_phantom = 0;
    m_drop_starved = 0;
    m_drop_pipeline_down = 0;
    m_drop_injected = 0;
    m_fault_events = 0;
    m_fault_stall_cycles = 0;
    m_pipe_down_cycles = 0;
    m_evac_moves = 0;
    m_dup_packets = 0;
    m_phantom_scheduled = 0;
    m_phantom_delivered = 0;
    m_phantom_doomed = 0;
    m_phantom_dropped = 0;
    m_remap_periods = 0;
    m_remap_moves = 0;
    m_imb_before = 0;
    m_imb_after = 0;
    m_lat_hist = Array.make lat_bins 0;
    m_lat_count = 0;
    m_lat_sum = 0;
    m_lat_max = 0;
  }

(* --- hot-loop bumps --- *)

let[@inline] slot m ~stage ~pipe = (stage * m.m_k) + pipe
let on_cycle m = m.m_cycles <- m.m_cycles + 1

let busy m ~stage ~pipe =
  let i = slot m ~stage ~pipe in
  m.m_busy.(i) <- m.m_busy.(i) + 1

let claimed m ~stage ~pipe =
  let i = slot m ~stage ~pipe in
  m.m_busy.(i) <- m.m_busy.(i) + 1;
  m.m_claimed.(i) <- m.m_claimed.(i) + 1

let stall_phantom m ~stage ~pipe =
  let i = slot m ~stage ~pipe in
  m.m_blocked.(i) <- m.m_blocked.(i) + 1

let stall_empty m ~stage ~pipe =
  let i = slot m ~stage ~pipe in
  m.m_idle.(i) <- m.m_idle.(i) + 1

let occupancy m ~stage ~pipe ~depth =
  let i = slot m ~stage ~pipe in
  if depth > m.m_occ_hwm.(i) then m.m_occ_hwm.(i) <- depth;
  let bin = if depth >= occ_bins then occ_bins - 1 else depth in
  m.m_occ_hist.(bin) <- m.m_occ_hist.(bin) + 1

let transfer m ~stage ~cross =
  m.m_xfer.(stage) <- m.m_xfer.(stage) + 1;
  if cross then m.m_xfer_cross.(stage) <- m.m_xfer_cross.(stage) + 1

let arrival m = m.m_arrivals <- m.m_arrivals + 1

let delivered m ~latency ~ecn =
  m.m_delivered <- m.m_delivered + 1;
  if ecn then m.m_ecn_marked <- m.m_ecn_marked + 1;
  let bin = if latency >= lat_bins then lat_bins - 1 else if latency < 0 then 0 else latency in
  m.m_lat_hist.(bin) <- m.m_lat_hist.(bin) + 1;
  m.m_lat_count <- m.m_lat_count + 1;
  m.m_lat_sum <- m.m_lat_sum + latency;
  if latency > m.m_lat_max then m.m_lat_max <- latency

let drop m cause =
  match cause with
  | Fifo_full -> m.m_drop_fifo_full <- m.m_drop_fifo_full + 1
  | No_phantom -> m.m_drop_no_phantom <- m.m_drop_no_phantom + 1
  | Starved -> m.m_drop_starved <- m.m_drop_starved + 1
  | Pipeline_down -> m.m_drop_pipeline_down <- m.m_drop_pipeline_down + 1
  | Injected -> m.m_drop_injected <- m.m_drop_injected + 1

(* --- fault/recovery counters (lib/fault integration) --- *)

let fault_event m = m.m_fault_events <- m.m_fault_events + 1

let fault_stall m ~stage ~pipe =
  let i = slot m ~stage ~pipe in
  m.m_blocked.(i) <- m.m_blocked.(i) + 1;
  m.m_fault_stall_cycles <- m.m_fault_stall_cycles + 1

let pipe_down_cycles m n = m.m_pipe_down_cycles <- m.m_pipe_down_cycles + n
let evac_move m = m.m_evac_moves <- m.m_evac_moves + 1
let dup_packet m = m.m_dup_packets <- m.m_dup_packets + 1

let phantom_scheduled m = m.m_phantom_scheduled <- m.m_phantom_scheduled + 1
let phantom_delivered m = m.m_phantom_delivered <- m.m_phantom_delivered + 1
let phantom_doomed m = m.m_phantom_doomed <- m.m_phantom_doomed + 1
let phantom_dropped m = m.m_phantom_dropped <- m.m_phantom_dropped + 1
let remap_period m = m.m_remap_periods <- m.m_remap_periods + 1

let remap_move m ~before ~after =
  m.m_remap_moves <- m.m_remap_moves + 1;
  m.m_imb_before <- m.m_imb_before + before;
  m.m_imb_after <- m.m_imb_after + after

(* --- accessors --- *)

let cell arr m ~stage ~pipe = arr.(slot m ~stage ~pipe)
let total = Array.fold_left ( + ) 0
let dropped_total m =
  m.m_drop_fifo_full + m.m_drop_no_phantom + m.m_drop_starved + m.m_drop_pipeline_down
  + m.m_drop_injected

let faulted m = m.m_fault_events > 0
let lat_mass m = total m.m_lat_hist

let hist_percentile hist count p =
  if count = 0 then 0
  else begin
    let target =
      let t = int_of_float (ceil (p /. 100.0 *. float_of_int count)) in
      if t < 1 then 1 else if t > count then count else t
    in
    let acc = ref 0 and answer = ref (Array.length hist - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= target then begin
             answer := i;
             raise Exit
           end)
         hist
     with Exit -> ());
    !answer
  end

let lat_percentile m p =
  let bin = hist_percentile m.m_lat_hist m.m_lat_count p in
  if bin = lat_bins - 1 then m.m_lat_max else bin

let occ_percentile m p = hist_percentile m.m_occ_hist (total m.m_occ_hist) p

let equal a b =
  a.m_stages = b.m_stages && a.m_k = b.m_k && a.m_cycles = b.m_cycles && a.m_busy = b.m_busy
  && a.m_idle = b.m_idle && a.m_blocked = b.m_blocked && a.m_claimed = b.m_claimed
  && a.m_occ_hwm = b.m_occ_hwm && a.m_occ_hist = b.m_occ_hist && a.m_xfer = b.m_xfer
  && a.m_xfer_cross = b.m_xfer_cross && a.m_arrivals = b.m_arrivals
  && a.m_delivered = b.m_delivered && a.m_ecn_marked = b.m_ecn_marked
  && a.m_drop_fifo_full = b.m_drop_fifo_full && a.m_drop_no_phantom = b.m_drop_no_phantom
  && a.m_drop_starved = b.m_drop_starved
  && a.m_drop_pipeline_down = b.m_drop_pipeline_down
  && a.m_drop_injected = b.m_drop_injected && a.m_fault_events = b.m_fault_events
  && a.m_fault_stall_cycles = b.m_fault_stall_cycles
  && a.m_pipe_down_cycles = b.m_pipe_down_cycles && a.m_evac_moves = b.m_evac_moves
  && a.m_dup_packets = b.m_dup_packets && a.m_phantom_scheduled = b.m_phantom_scheduled
  && a.m_phantom_delivered = b.m_phantom_delivered && a.m_phantom_doomed = b.m_phantom_doomed
  && a.m_phantom_dropped = b.m_phantom_dropped && a.m_remap_periods = b.m_remap_periods
  && a.m_remap_moves = b.m_remap_moves && a.m_imb_before = b.m_imb_before
  && a.m_imb_after = b.m_imb_after && a.m_lat_hist = b.m_lat_hist
  && a.m_lat_count = b.m_lat_count && a.m_lat_sum = b.m_lat_sum && a.m_lat_max = b.m_lat_max

(* --- checkpointing ---

   One fixed-layout int array: stages, k, cycles, the five per-slot
   arrays, the occupancy histogram, the two per-stage crossbar arrays,
   every scalar counter in declaration order, then the latency histogram
   and its three scalars. *)

let codec io m =
  let module C = Mp5_util.Codec in
  let n = 3 + (5 * m.m_stages * m.m_k) + occ_bins + (2 * m.m_stages) + 21 + lat_bins + 3 in
  let mismatch = "snapshot: metrics shape does not match the machine" in
  C.fixed io ~n ~mismatch;
  C.expect io ~n:m.m_stages ~what:"metrics stage count" ~mismatch m.m_stages;
  C.expect io ~n:m.m_k ~what:"metrics pipeline count" ~mismatch m.m_k;
  let w v = C.word io ~what:"metrics counter" v in
  let arr a = Array.iteri (fun i v -> a.(i) <- w v) a in
  m.m_cycles <- w m.m_cycles;
  List.iter arr
    [ m.m_busy; m.m_idle; m.m_blocked; m.m_claimed; m.m_occ_hwm; m.m_occ_hist; m.m_xfer;
      m.m_xfer_cross ];
  m.m_arrivals <- w m.m_arrivals;
  m.m_delivered <- w m.m_delivered;
  m.m_ecn_marked <- w m.m_ecn_marked;
  m.m_drop_fifo_full <- w m.m_drop_fifo_full;
  m.m_drop_no_phantom <- w m.m_drop_no_phantom;
  m.m_drop_starved <- w m.m_drop_starved;
  m.m_drop_pipeline_down <- w m.m_drop_pipeline_down;
  m.m_drop_injected <- w m.m_drop_injected;
  m.m_fault_events <- w m.m_fault_events;
  m.m_fault_stall_cycles <- w m.m_fault_stall_cycles;
  m.m_pipe_down_cycles <- w m.m_pipe_down_cycles;
  m.m_evac_moves <- w m.m_evac_moves;
  m.m_dup_packets <- w m.m_dup_packets;
  m.m_phantom_scheduled <- w m.m_phantom_scheduled;
  m.m_phantom_delivered <- w m.m_phantom_delivered;
  m.m_phantom_doomed <- w m.m_phantom_doomed;
  m.m_phantom_dropped <- w m.m_phantom_dropped;
  m.m_remap_periods <- w m.m_remap_periods;
  m.m_remap_moves <- w m.m_remap_moves;
  m.m_imb_before <- w m.m_imb_before;
  m.m_imb_after <- w m.m_imb_after;
  arr m.m_lat_hist;
  m.m_lat_count <- w m.m_lat_count;
  m.m_lat_sum <- w m.m_lat_sum;
  m.m_lat_max <- w m.m_lat_max

(* --- invariants --- *)

let check_invariants ~stages ~k ~cycles ~busy ~idle ~blocked ~claimed ~delivered ~lat_count
    ~lat_hist_mass ~phantom_scheduled ~phantom_delivered ~phantom_doomed ~phantom_dropped =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if busy + idle + blocked <> stages * k * cycles then
    err "cycle classification not total: busy %d + idle %d + blocked %d <> %d stages * %d k * %d cycles"
      busy idle blocked stages k cycles
  else if claimed > busy then err "claimed %d exceeds busy %d" claimed busy
  else if lat_count <> delivered then
    err "latency count %d <> delivered %d" lat_count delivered
  else if lat_hist_mass <> delivered then
    err "latency histogram mass %d <> delivered %d" lat_hist_mass delivered
  else if phantom_delivered + phantom_doomed + phantom_dropped <> phantom_scheduled then
    err "phantom conservation: delivered %d + doomed %d + dropped %d <> scheduled %d"
      phantom_delivered phantom_doomed phantom_dropped phantom_scheduled
  else Ok ()

let validate m =
  check_invariants ~stages:m.m_stages ~k:m.m_k ~cycles:m.m_cycles ~busy:(total m.m_busy)
    ~idle:(total m.m_idle) ~blocked:(total m.m_blocked) ~claimed:(total m.m_claimed)
    ~delivered:m.m_delivered ~lat_count:m.m_lat_count ~lat_hist_mass:(lat_mass m)
    ~phantom_scheduled:m.m_phantom_scheduled ~phantom_delivered:m.m_phantom_delivered
    ~phantom_doomed:m.m_phantom_doomed ~phantom_dropped:m.m_phantom_dropped

(* --- JSON snapshot --- *)

let schema_id = "mp5-metrics/1"

let to_json m =
  let ints xs = Json.List (List.map (fun i -> Json.Int i) (Array.to_list xs)) in
  let slots = ref [] in
  for stage = m.m_stages - 1 downto 0 do
    for pipe = m.m_k - 1 downto 0 do
      let i = slot m ~stage ~pipe in
      slots :=
        Json.Obj
          [
            ("stage", Json.Int stage);
            ("pipe", Json.Int pipe);
            ("busy", Json.Int m.m_busy.(i));
            ("idle", Json.Int m.m_idle.(i));
            ("blocked", Json.Int m.m_blocked.(i));
            ("claimed", Json.Int m.m_claimed.(i));
            ("occ_hwm", Json.Int m.m_occ_hwm.(i));
          ]
        :: !slots
    done
  done;
  let crossbar = ref [] in
  for stage = m.m_stages - 1 downto 0 do
    crossbar :=
      Json.Obj
        [
          ("stage", Json.Int stage);
          ("transfers", Json.Int m.m_xfer.(stage));
          ("cross", Json.Int m.m_xfer_cross.(stage));
        ]
      :: !crossbar
  done;
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ("stages", Json.Int m.m_stages);
      ("k", Json.Int m.m_k);
      ("cycles", Json.Int m.m_cycles);
      ( "packets",
        Json.Obj
          [
            ("arrivals", Json.Int m.m_arrivals);
            ("delivered", Json.Int m.m_delivered);
            ("ecn_marked", Json.Int m.m_ecn_marked);
            ( "drops",
              Json.Obj
                [
                  ("fifo_full", Json.Int m.m_drop_fifo_full);
                  ("no_phantom", Json.Int m.m_drop_no_phantom);
                  ("starved", Json.Int m.m_drop_starved);
                  ("pipeline_down", Json.Int m.m_drop_pipeline_down);
                  ("injected", Json.Int m.m_drop_injected);
                ] );
          ] );
      ( "faults",
        Json.Obj
          [
            ("events", Json.Int m.m_fault_events);
            ("stall_cycles", Json.Int m.m_fault_stall_cycles);
            ("pipe_down_cycles", Json.Int m.m_pipe_down_cycles);
            ("evac_moves", Json.Int m.m_evac_moves);
            ("dup_packets", Json.Int m.m_dup_packets);
          ] );
      ( "cycle_states",
        Json.Obj
          [
            ("busy", Json.Int (total m.m_busy));
            ("idle", Json.Int (total m.m_idle));
            ("blocked", Json.Int (total m.m_blocked));
            ("claimed", Json.Int (total m.m_claimed));
          ] );
      ("slots", Json.List !slots);
      ("crossbar", Json.List !crossbar);
      ( "phantoms",
        Json.Obj
          [
            ("scheduled", Json.Int m.m_phantom_scheduled);
            ("delivered", Json.Int m.m_phantom_delivered);
            ("doomed", Json.Int m.m_phantom_doomed);
            ("dropped", Json.Int m.m_phantom_dropped);
          ] );
      ( "remap",
        Json.Obj
          [
            ("periods", Json.Int m.m_remap_periods);
            ("moves", Json.Int m.m_remap_moves);
            ("imbalance_before", Json.Int m.m_imb_before);
            ("imbalance_after", Json.Int m.m_imb_after);
          ] );
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int m.m_lat_count);
            ("sum", Json.Int m.m_lat_sum);
            ("max", Json.Int m.m_lat_max);
            ("p50", Json.Int (lat_percentile m 50.0));
            ("p99", Json.Int (lat_percentile m 99.0));
            ("hist", ints m.m_lat_hist);
          ] );
      ( "occupancy",
        Json.Obj
          [
            ("p50", Json.Int (occ_percentile m 50.0));
            ("p99", Json.Int (occ_percentile m 99.0));
            ("hist", ints m.m_occ_hist);
          ] );
    ]

let json_string m = Json.to_string (to_json m)

(* Re-check the invariants on a snapshot parsed back from disk: the
   schema validation bench/CI run on the artifacts they just wrote. *)
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
  let* stages = field [ "stages" ] j in
  let* k = field [ "k" ] j in
  let* cycles = field [ "cycles" ] j in
  let* busy = field [ "cycle_states"; "busy" ] j in
  let* idle = field [ "cycle_states"; "idle" ] j in
  let* blocked = field [ "cycle_states"; "blocked" ] j in
  let* claimed = field [ "cycle_states"; "claimed" ] j in
  let* delivered = field [ "packets"; "delivered" ] j in
  let* lat_count = field [ "latency"; "count" ] j in
  let* phantom_scheduled = field [ "phantoms"; "scheduled" ] j in
  let* phantom_delivered = field [ "phantoms"; "delivered" ] j in
  let* phantom_doomed = field [ "phantoms"; "doomed" ] j in
  let* phantom_dropped = field [ "phantoms"; "dropped" ] j in
  let* lat_hist_mass =
    match Option.bind (Json.member "latency" j) (Json.member "hist") with
    | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match Json.to_int x with
            | Some i -> Ok (acc + i)
            | None -> Error "non-int latency histogram bin")
          (Ok 0) xs
    | _ -> Error "missing latency.hist"
  in
  (* Walk the per-slot entries once: count them, and sum each state so
     the per-slot breakdown can be cross-checked against the
     [cycle_states] scalars — a snapshot whose histogram rows disagree
     with its own totals must not validate. *)
  let* n_slots, slot_busy, slot_idle, slot_blocked, slot_claimed =
    match Json.member "slots" j with
    | Some (Json.List xs) ->
        List.fold_left
          (fun acc x ->
            let* n, b, i, bl, c = acc in
            let* sb = field [ "busy" ] x in
            let* si = field [ "idle" ] x in
            let* sbl = field [ "blocked" ] x in
            let* sc = field [ "claimed" ] x in
            Ok (n + 1, b + sb, i + si, bl + sbl, c + sc))
          (Ok (0, 0, 0, 0, 0))
          xs
    | _ -> Error "missing slots array"
  in
  let* () =
    if n_slots = stages * k then Ok ()
    else Error (Printf.sprintf "slots array has %d entries, expected %d" n_slots (stages * k))
  in
  let* () =
    let check name sum scalar acc =
      let* () = acc in
      if sum = scalar then Ok ()
      else
        Error
          (Printf.sprintf "per-slot %s sum %d disagrees with cycle_states.%s %d" name sum
             name scalar)
    in
    Ok ()
    |> check "busy" slot_busy busy
    |> check "idle" slot_idle idle
    |> check "blocked" slot_blocked blocked
    |> check "claimed" slot_claimed claimed
  in
  check_invariants ~stages ~k ~cycles ~busy ~idle ~blocked ~claimed ~delivered ~lat_count
    ~lat_hist_mass ~phantom_scheduled ~phantom_delivered ~phantom_doomed ~phantom_dropped

(* --- Prometheus text exposition --- *)

let to_prometheus m =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "# HELP mp5_cycles Simulated (visited) cycles.\n# TYPE mp5_cycles counter\n";
  out "mp5_cycles %d\n" m.m_cycles;
  out "# HELP mp5_slot_cycles Per (stage,pipeline) cycle classification.\n";
  out "# TYPE mp5_slot_cycles counter\n";
  for stage = 0 to m.m_stages - 1 do
    for pipe = 0 to m.m_k - 1 do
      let i = slot m ~stage ~pipe in
      out "mp5_slot_cycles{stage=\"%d\",pipe=\"%d\",state=\"busy\"} %d\n" stage pipe m.m_busy.(i);
      out "mp5_slot_cycles{stage=\"%d\",pipe=\"%d\",state=\"idle\"} %d\n" stage pipe m.m_idle.(i);
      out "mp5_slot_cycles{stage=\"%d\",pipe=\"%d\",state=\"blocked\"} %d\n" stage pipe
        m.m_blocked.(i);
      out "mp5_slot_cycles{stage=\"%d\",pipe=\"%d\",state=\"claimed\"} %d\n" stage pipe
        m.m_claimed.(i)
    done
  done;
  out "# HELP mp5_queue_high_water Per (stage,pipeline) queue-depth high-water mark.\n";
  out "# TYPE mp5_queue_high_water gauge\n";
  for stage = 0 to m.m_stages - 1 do
    for pipe = 0 to m.m_k - 1 do
      out "mp5_queue_high_water{stage=\"%d\",pipe=\"%d\"} %d\n" stage pipe
        (cell m.m_occ_hwm m ~stage ~pipe)
    done
  done;
  out "# HELP mp5_crossbar_transfers Packets entering a stage via the crossbar.\n";
  out "# TYPE mp5_crossbar_transfers counter\n";
  for stage = 0 to m.m_stages - 1 do
    out "mp5_crossbar_transfers{stage=\"%d\",kind=\"total\"} %d\n" stage m.m_xfer.(stage);
    out "mp5_crossbar_transfers{stage=\"%d\",kind=\"cross\"} %d\n" stage m.m_xfer_cross.(stage)
  done;
  out "# HELP mp5_packets Packet lifecycle events.\n# TYPE mp5_packets counter\n";
  out "mp5_packets{event=\"arrival\"} %d\n" m.m_arrivals;
  out "mp5_packets{event=\"delivered\"} %d\n" m.m_delivered;
  out "mp5_packets{event=\"ecn_marked\"} %d\n" m.m_ecn_marked;
  out "# HELP mp5_drops Dropped packets by cause.\n# TYPE mp5_drops counter\n";
  out "mp5_drops{cause=\"fifo_full\"} %d\n" m.m_drop_fifo_full;
  out "mp5_drops{cause=\"no_phantom\"} %d\n" m.m_drop_no_phantom;
  out "mp5_drops{cause=\"starved\"} %d\n" m.m_drop_starved;
  out "mp5_drops{cause=\"pipeline_down\"} %d\n" m.m_drop_pipeline_down;
  out "mp5_drops{cause=\"injected\"} %d\n" m.m_drop_injected;
  out "# HELP mp5_faults Injected-fault activity.\n# TYPE mp5_faults counter\n";
  out "mp5_faults{event=\"applied\"} %d\n" m.m_fault_events;
  out "mp5_faults{event=\"stall_cycles\"} %d\n" m.m_fault_stall_cycles;
  out "mp5_faults{event=\"pipe_down_cycles\"} %d\n" m.m_pipe_down_cycles;
  out "mp5_faults{event=\"evac_moves\"} %d\n" m.m_evac_moves;
  out "mp5_faults{event=\"dup_packets\"} %d\n" m.m_dup_packets;
  out "# HELP mp5_phantoms Phantom-channel events.\n# TYPE mp5_phantoms counter\n";
  out "mp5_phantoms{event=\"scheduled\"} %d\n" m.m_phantom_scheduled;
  out "mp5_phantoms{event=\"delivered\"} %d\n" m.m_phantom_delivered;
  out "mp5_phantoms{event=\"doomed\"} %d\n" m.m_phantom_doomed;
  out "mp5_phantoms{event=\"dropped\"} %d\n" m.m_phantom_dropped;
  out "# HELP mp5_remap_moves Sharding remap moves applied.\n# TYPE mp5_remap_moves counter\n";
  out "mp5_remap_moves %d\n" m.m_remap_moves;
  out "# HELP mp5_remap_periods Remap periods visited.\n# TYPE mp5_remap_periods counter\n";
  out "mp5_remap_periods %d\n" m.m_remap_periods;
  (* Latency as a native Prometheus histogram (cumulative buckets). *)
  out "# HELP mp5_latency_cycles Per-packet switch latency in cycles.\n";
  out "# TYPE mp5_latency_cycles histogram\n";
  let bound = ref 1 and acc = ref 0 in
  for i = 0 to lat_bins - 1 do
    acc := !acc + m.m_lat_hist.(i);
    if i = !bound - 1 then begin
      out "mp5_latency_cycles_bucket{le=\"%d\"} %d\n" !bound !acc;
      bound := !bound * 2
    end
  done;
  out "mp5_latency_cycles_bucket{le=\"+Inf\"} %d\n" m.m_lat_count;
  out "mp5_latency_cycles_sum %d\n" m.m_lat_sum;
  out "mp5_latency_cycles_count %d\n" m.m_lat_count;
  Buffer.contents buf

(* --- one-screen report --- *)

let pct part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp ppf m =
  let slots_total = m.m_stages * m.m_k * m.m_cycles in
  let busy = total m.m_busy and idle = total m.m_idle and blocked = total m.m_blocked in
  let claimed = total m.m_claimed in
  Format.fprintf ppf "run: %d cycles, %d stages x %d pipelines@." m.m_cycles m.m_stages m.m_k;
  Format.fprintf ppf
    "packets: %d arrived, %d delivered, %d dropped (fifo_full %d, no_phantom %d, starved %d%s), %d ECN-marked@."
    m.m_arrivals m.m_delivered (dropped_total m) m.m_drop_fifo_full m.m_drop_no_phantom
    m.m_drop_starved
    (if m.m_drop_pipeline_down = 0 && m.m_drop_injected = 0 then ""
     else
       Printf.sprintf ", pipeline_down %d, injected %d" m.m_drop_pipeline_down
         m.m_drop_injected)
    m.m_ecn_marked;
  if faulted m then
    Format.fprintf ppf
      "faults: %d events, %d stall cycles, %d pipeline-down cycles, %d evacuation moves, %d duplicated packets@."
      m.m_fault_events m.m_fault_stall_cycles m.m_pipe_down_cycles m.m_evac_moves
      m.m_dup_packets;
  if m.m_lat_count > 0 then
    Format.fprintf ppf "latency: mean %.1f  p50 %d  p99 %d  max %d cycles@."
      (float_of_int m.m_lat_sum /. float_of_int m.m_lat_count)
      (lat_percentile m 50.0) (lat_percentile m 99.0) m.m_lat_max;
  Format.fprintf ppf
    "slots: busy %.1f%%  idle %.1f%%  blocked-on-phantom %.1f%%  (stateless claims %.1f%%)@."
    (pct busy slots_total) (pct idle slots_total) (pct blocked slots_total)
    (pct claimed slots_total);
  (* stall attribution: the most-blocked slot localises head-of-line trouble *)
  let worst = ref 0 and worst_stage = ref 0 and worst_pipe = ref 0 in
  for stage = 0 to m.m_stages - 1 do
    for pipe = 0 to m.m_k - 1 do
      let b = cell m.m_blocked m ~stage ~pipe in
      if b > !worst then begin
        worst := b;
        worst_stage := stage;
        worst_pipe := pipe
      end
    done
  done;
  if !worst > 0 then
    Format.fprintf ppf "  most blocked: stage %d / pipeline %d, %d cycles behind phantoms@."
      !worst_stage !worst_pipe !worst;
  let xfer = total m.m_xfer and cross = total m.m_xfer_cross in
  Format.fprintf ppf "crossbar: %d transfers, %d cross-pipeline (%.1f%%)@." xfer cross
    (pct cross xfer);
  Format.fprintf ppf "phantoms: %d scheduled, %d delivered, %d doomed, %d dropped@."
    m.m_phantom_scheduled m.m_phantom_delivered m.m_phantom_doomed m.m_phantom_dropped;
  let hwm = Array.fold_left max 0 m.m_occ_hwm in
  Format.fprintf ppf "queues: occupancy p50 %d  p99 %d  high-water %d@." (occ_percentile m 50.0)
    (occ_percentile m 99.0) hwm;
  if m.m_remap_periods > 0 then
    Format.fprintf ppf "remaps: %d periods, %d moves%s@." m.m_remap_periods m.m_remap_moves
      (if m.m_remap_moves = 0 then ""
       else
         Format.asprintf ", avg imbalance %.0f -> %.0f"
           (float_of_int m.m_imb_before /. float_of_int m.m_remap_moves)
           (float_of_int m.m_imb_after /. float_of_int m.m_remap_moves))
