module Machine = Mp5_banzai.Machine
module Sim = Mp5_core.Sim
module Leg = Mp5_core.Leg
module Transform = Mp5_core.Transform
module Psource = Mp5_workload.Packet_source
module Hashing = Mp5_util.Hashing
module Binio = Mp5_util.Binio
module C = Mp5_util.Codec
module Monitor = Mp5_fault.Monitor
module Linkplan = Mp5_fault.Linkplan
module Store = Mp5_banzai.Store
module Config = Mp5_banzai.Config

(* --- latency histograms ---

   Log2-bucketed, constant size, integer-only: two fabrics that ran the
   same packets produce structurally equal histograms, so identity
   checks (snapshot/resume) can compare them exactly while the bench
   layer reads approximate percentiles off the buckets. *)

module Hist = struct
  type t = { mutable count : int; mutable sum : int; mutable max : int; buckets : int array }

  let n_buckets = 63

  let create () = { count = 0; sum = 0; max = 0; buckets = Array.make n_buckets 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      !b
    end

  let observe t v =
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max then t.max <- v;
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1

  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  (* Upper bound of the bucket holding the p-th percentile sample. *)
  let percentile t p =
    if t.count = 0 then 0
    else begin
      let target =
        let x = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
        if x < 1 then 1 else if x > t.count then t.count else x
      in
      let seen = ref 0 and b = ref 0 and found = ref (-1) in
      while !found < 0 && !b < n_buckets do
        seen := !seen + t.buckets.(!b);
        if !seen >= target then found := !b;
        incr b
      done;
      let b = if !found < 0 then n_buckets - 1 else !found in
      if b = 0 then 0 else (1 lsl b) - 1
    end

  let equal a b = a.count = b.count && a.sum = b.sum && a.max = b.max && a.buckets = b.buckets

  let codec io t =
    t.count <- C.nat io ~what:"histogram count" t.count;
    t.sum <- C.word io ~what:"histogram sum" t.sum;
    t.max <- C.word io ~what:"histogram max" t.max;
    C.ints_in io C.Range ~lo:0 ~hi:max_int ~what:"histogram bucket"
      ~mismatch:"fabric snapshot: histogram shape" t.buckets ~pos:0 ~len:n_buckets
end

(* --- fabric state --- *)

module Ring = Flat.Ring
module Table = Flat.Table

type params = {
  fp_sim : Sim.params;
  fp_topo : Topology.t;
  fp_policy : Routing.policy;
  fp_plan : Linkplan.plan;
}

(* Per-packet fabric metadata (fabric seq, destination host, injection
   cycle, hops) lives in [metas.(node)], keyed by the node's local seq,
   while the packet is inside or queued at a switch, and in its link's
   ring entry while it is on a link.  Bounded: an entry exists only
   while its packet does. *)
type t = {
  mutable p : params;                        (* its link plan is the snapshot's on a resume *)
  prog : Transform.t;
  fwd : int array array;                     (* switch -> dst host -> egress port *)
  lk_delay : int array;                      (* link -> send-to-arrival cycles *)
  lk_sw : int array;                         (* link -> far-end switch, -1 for a host *)
  mon : Monitor.t option;
  dst_of : Machine.input -> int;
  hosts : Psource.t;                         (* the host packet source *)
  mutable nodes : Sim.node array;            (* set once by [make_nodes] *)
  metas : Table.t array;                     (* per node, local seq -> metadata *)
  links : Ring.t array;                      (* per link, packets in flight *)
  last_due : int array;                      (* per link, due cycle of its latest send *)
  mutable anchor : int;
  ck : Leg.clock;
  mutable injected : int;
  mutable delivered : int;                   (* packets handed to hosts *)
  mutable miss_dropped : int;
  mutable link_dropped : int;
  mutable last_event : int;
  ed : Hashing.state;                        (* fabric exit digest *)
  src : Hashing.state;                       (* host source digest *)
  hop_hist : Hist.t;
  e2e_hist : Hist.t;
  hops_hist : Hist.t;
}

type result = {
  fr_switches : int;
  fr_hosts : int;
  fr_injected : int;
  fr_delivered : int;
  fr_node_dropped : int;
  fr_miss_dropped : int;
  fr_link_dropped : int;
  fr_cycles : int;
  fr_exit_digest : int;
  fr_access_digest : int;
  fr_store_digest : int;
  fr_hop_hist : Hist.t;
  fr_e2e_hist : Hist.t;
  fr_hops_hist : Hist.t;
  fr_node_delivered : int array;
  fr_node_dropped_by : int array;
  fr_node_max_queue : int array;
}

type outcome = Completed of result | Suspended of string

exception Conservation of string

(* The host source digest folds each injected packet's time, port and
   headers, read off the source's buffer. *)
let feed_input st source =
  Hashing.feed st (Psource.time source);
  Hashing.feed st (Psource.port source);
  let headers = Psource.headers source in
  for f = 0 to Array.length headers - 1 do
    Hashing.feed st headers.(f)
  done

(* --- per-cycle machinery --- *)

(* Enqueue onto a link: the packet's metadata, its input's time and
   port, and the headers [src.(off) .. src.(off + n - 1)].  The due
   cycle is clamped to the link's previous tail so a link never
   reorders — a link-delay window opening cannot let a later packet
   overtake an earlier delayed one. *)
let send fab ~now ~link ~aux ~fseq ~dst ~inject ~hops ~time ~port src ~off ~n =
  let plan = fab.p.fp_plan in
  if Linkplan.is_down plan ~now ~link then begin
    fab.link_dropped <- fab.link_dropped + 1;
    fab.last_event <- now
  end
  else begin
    let due = now + fab.lk_delay.(link) + Linkplan.extra_delay plan ~now ~link in
    let last = fab.last_due.(link) in
    let due = if due < last then last else due in
    fab.last_due.(link) <- due;
    Ring.push fab.links.(link) ~due ~aux ~fseq ~dst ~inject ~hops ~time ~port src ~off ~n
  end

(* Host injection: every source packet due at (or before) this cycle
   enters its source host's uplink, its headers copied from the source's
   buffer into the link's ring.  [dst_of] reads a view of the buffer: a
   4-word record per packet, the one allocation on this path. *)
let inject_phase fab t =
  let n_hosts = Topology.n_hosts fab.p.fp_topo in
  let hosts = fab.hosts in
  while Psource.ready hosts && Psource.time hosts <= t do
    feed_input fab.src hosts;
    let fseq = fab.injected in
    fab.injected <- fab.injected + 1;
    let time = Psource.time hosts and port = Psource.port hosts in
    let headers = Psource.headers hosts in
    let src = port mod n_hosts in
    let dst = fab.dst_of { Machine.time; port; headers } in
    if dst < 0 || dst >= n_hosts then begin
      (* No deliverable destination: a forwarding miss at ingress. *)
      fab.miss_dropped <- fab.miss_dropped + 1;
      fab.last_event <- t
    end
    else
      send fab ~now:t ~link:(Topology.host_uplink fab.p.fp_topo src) ~aux:0 ~fseq ~dst
        ~inject:time ~hops:0 ~time ~port headers ~off:0 ~n:(Array.length headers);
    Psource.advance hosts
  done

(* Link delivery, ascending link id, FIFO within a link: one fixed
   (link-id, seq) handoff order. *)
let delivery_phase fab t =
  for li = 0 to Array.length fab.links - 1 do
    let ring = fab.links.(li) in
    while (not (Ring.is_empty ring)) && Ring.get ring (Ring.head ring) Ring.due <= t do
      let pos = Ring.head ring in
      let fseq = Ring.get ring pos Ring.fseq
      and inject = Ring.get ring pos Ring.inject
      and hops = Ring.get ring pos Ring.hops in
      let s = fab.lk_sw.(li) in
      if s >= 0 then begin
        (* The entry's headers go straight into the node's ingress ring. *)
        let lseq =
          Sim.node_inject fab.nodes.(s) ~time:t ~port:li (Ring.words ring)
            ~off:(pos + Ring.header_base) ~mask:(Ring.mask ring) ~n:(Ring.get ring pos Ring.nh)
        in
        Table.add fab.metas.(s) lseq ~fseq ~dst:(Ring.get ring pos Ring.dst) ~inject ~hops
      end
      else begin
        (* Delivered.  The exit digest folds (fabric seq, last-hop
           pipeline latency, headers) in delivery order, which for a
           one-switch fabric is the sim's exit order — the degenerate
           differential pin. *)
        fab.delivered <- fab.delivered + 1;
        fab.last_event <- t;
        Hashing.feed fab.ed fseq;
        Hashing.feed fab.ed (Ring.get ring pos Ring.aux);
        for j = 0 to Ring.get ring pos Ring.nh - 1 do
          Hashing.feed fab.ed (Ring.get ring pos (Ring.header_base + j))
        done;
        Hist.observe fab.e2e_hist (Ring.get ring pos Ring.due - inject);
        Hist.observe fab.hops_hist hops
      end;
      Ring.pop ring
    done
  done

(* The [on_exit] hook of switch [i], fired while it steps cycle
   [fab.ck.now]: the packet releases its metadata, consults [i]'s
   forwarding table and enters its next link, its headers copied
   straight from the machine's slab, or falls off as a counted miss.
   Switches step in node order and each owns its egress links, so every
   link receives its packets in one fixed order. *)
let route_exit fab i ~seq ~latency ~fields ~off =
  let t = fab.ck.Leg.now in
  let metas = fab.metas.(i) in
  let slot = Table.find metas seq in
  if slot < 0 then failwith "Fabric: exited packet has no metadata (driver bug)";
  let fseq = Table.get metas slot Table.fseq
  and dst = Table.get metas slot Table.dst
  and inject = Table.get metas slot Table.inject
  and hops = Table.get metas slot Table.hops + 1 in
  Table.remove_slot metas slot;
  Hist.observe fab.hop_hist latency;
  let port = fab.fwd.(i).(dst) in
  if port < 0 then begin
    fab.miss_dropped <- fab.miss_dropped + 1;
    fab.last_event <- t
  end
  else begin
    let link = (Topology.out_links fab.p.fp_topo i).(port) in
    let aux = if fab.lk_sw.(link) < 0 then latency else 0 in
    send fab ~now:t ~link ~aux ~fseq ~dst ~inject ~hops ~time:t ~port:link fields ~off
      ~n:fab.prog.Transform.config.Config.n_user_fields
  end

(* --- construction --- *)

(* Build every switch with the hooks that route its exits and release
   its dropped packets' metadata.  [node i ~on_exit ~on_drop] makes
   switch [i]: fresh in [create], decoded in [decode_fabric]. *)
let make_nodes fab node =
  fab.nodes <-
    Array.init (Topology.n_switches fab.p.fp_topo) (fun i ->
        let on_exit ~seq ~latency ~fields ~off = route_exit fab i ~seq ~latency ~fields ~off in
        let on_drop ~seq = Table.remove fab.metas.(i) seq in
        node i ~on_exit ~on_drop)

(* Per link: cycles from a send to its nominal arrival (one more between
   two switches, whose egress is the cycle after the exit) and the
   far-end switch, -1 for a host. *)
let link_tables topo =
  let n = Topology.n_links topo in
  let delay = Array.make n 0 and sw = Array.make n (-1) in
  for li = 0 to n - 1 do
    let l = Topology.link topo li in
    match (l.Topology.l_src, l.Topology.l_dst) with
    | Topology.Switch _, Topology.Switch s ->
        delay.(li) <- l.Topology.l_delay + 1;
        sw.(li) <- s
    | Topology.Host _, Topology.Switch s ->
        delay.(li) <- l.Topology.l_delay;
        sw.(li) <- s
    | _, Topology.Host _ -> delay.(li) <- l.Topology.l_delay
  done;
  (delay, sw)

(* A fabric at [anchor] fed by [hosts], with no switches yet, empty
   links and zeroed counters.  [into], a retired fabric of the same
   topology and routing policy, lends its forwarding and link tables
   and its metadata tables and link rings, emptied. *)
let blank ?monitor ?into ~dst ~hosts ~anchor p prog =
  let fwd, (lk_delay, lk_sw), metas, links, last_due =
    match into with
    | Some old ->
        Array.iter Table.clear old.metas;
        Array.iter Ring.clear old.links;
        (old.fwd, (old.lk_delay, old.lk_sw), old.metas, old.links, old.last_due)
    | None ->
        let n_links = Topology.n_links p.fp_topo in
        ( Routing.compile p.fp_policy p.fp_topo,
          link_tables p.fp_topo,
          Array.init (Topology.n_switches p.fp_topo) (fun _ -> Table.create ()),
          Array.init n_links (fun _ -> Ring.create ()),
          Array.make n_links 0 )
  in
  {
    p;
    prog;
    fwd;
    lk_delay;
    lk_sw;
    mon = monitor;
    dst_of = dst;
    hosts;
    nodes = [||];
    metas;
    links;
    last_due;
    anchor;
    ck = { Leg.now = anchor; last_score = 0; last_progress_t = anchor; visited = 0 };
    injected = 0;
    delivered = 0;
    miss_dropped = 0;
    link_dropped = 0;
    last_event = anchor;
    ed = Hashing.start ();
    src = Hashing.start ();
    hop_hist = Hist.create ();
    e2e_hist = Hist.create ();
    hops_hist = Hist.create ();
  }

let create ?monitor ~dst ~hosts ~anchor p prog =
  (match Linkplan.validate p.fp_plan ~n_links:(Topology.n_links p.fp_topo) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fabric.create: " ^ msg));
  let fab = blank ?monitor ~dst ~hosts ~anchor p prog in
  make_nodes fab (fun _ ~on_exit ~on_drop ->
      Sim.node_create ~anchor ~on_exit ~on_drop p.fp_sim prog);
  fab

(* Fabric-wide packet conservation: everything injected is in a switch,
   queued at its ingress, in flight on a link, delivered, or counted
   dropped — summed over nodes and links. *)
let accounted fab =
  Array.fold_left
    (fun n nd -> n + Sim.node_in_flight nd + Sim.node_backlog nd + Sim.node_dropped nd)
    (fab.delivered + fab.miss_dropped + fab.link_dropped)
    fab.nodes
  + Array.fold_left (fun n ring -> n + Ring.length ring) 0 fab.links

let conservation_check fab t =
  let accounted = accounted fab in
  if accounted <> fab.injected then begin
    let sum f = Array.fold_left (fun n nd -> n + f nd) 0 fab.nodes in
    let msg =
      Printf.sprintf
        "fabric conservation violated at cycle %d: injected %d <> %d accounted (%d in \
         switches + %d queued + %d on links + %d delivered + %d node-dropped + %d \
         fwd-miss + %d link-dropped)"
        t fab.injected accounted (sum Sim.node_in_flight) (sum Sim.node_backlog)
        (Array.fold_left (fun n ring -> n + Ring.length ring) 0 fab.links)
        fab.delivered (sum Sim.node_dropped) fab.miss_dropped fab.link_dropped
    in
    match fab.mon with
    | Some mon -> Monitor.report mon ~cycle:t msg
    | None -> raise (Conservation msg)
  end
  else match fab.mon with Some mon -> Monitor.mark mon ~now:t | None -> ()

(* The leg loop's per-cycle queries, as plain loops.  [max_int] when
   every link is empty. *)
let min_link_due fab =
  let due = ref max_int in
  for li = 0 to Array.length fab.links - 1 do
    let ring = fab.links.(li) in
    if not (Ring.is_empty ring) then begin
      let d = Ring.get ring (Ring.head ring) Ring.due in
      if d < !due then due := d
    end
  done;
  !due

let any_node_work fab =
  let work = ref false and i = ref 0 in
  while (not !work) && !i < Array.length fab.nodes do
    let nd = fab.nodes.(!i) in
    work := Sim.node_in_flight nd > 0 || Sim.node_backlog nd > 0;
    incr i
  done;
  !work

let nodes_dropped fab =
  let n = ref 0 in
  for i = 0 to Array.length fab.nodes - 1 do
    n := !n + Sim.node_dropped fab.nodes.(i)
  done;
  !n

let snap_magic = "mp5-fab/1"

exception Restore_mismatch of string

(* A node frame [Sim.node_restore] rejected, its message positioned in
   the fabric snapshot. *)
exception Node_corrupt of string

(* Cycles stay below it, so a forged one cannot overflow. *)
let max_time = 1 lsl 60

(* --- snapshots ("mp5-fab/1") ---

   Each section is one function over a {!Mp5_util.Codec.t}, writing the
   fabric's fields on an encode and reading them back, each under its
   stated rule, on a decode. *)

(* The topology and routing policy the snapshot was taken under, the
   link plan it ran, then the clock, counters and digests.  Every event
   and progress mark lies between the anchor and the next cycle. *)
let header io fab =
  let topo = Topology.digest fab.p.fp_topo in
  if C.xword io ~what:"topology digest" topo <> topo then
    raise (Restore_mismatch "snapshot was taken against a different topology");
  let pol = Routing.digest fab.p.fp_policy in
  if C.xword io ~what:"routing policy digest" pol <> pol then
    raise (Restore_mismatch "snapshot was taken against a different routing policy");
  let at = C.position io in
  let text =
    C.string io ~what:"link plan" (if C.reading io then "" else Linkplan.to_string fab.p.fp_plan)
  in
  if C.reading io then begin
    let plan =
      match Linkplan.parse text with
      | Ok plan -> plan
      | Error msg -> C.fail ~at "fabric snapshot: embedded link plan: %s" msg
    in
    (match Linkplan.validate plan ~n_links:(Topology.n_links fab.p.fp_topo) with
    | Ok () -> ()
    | Error msg -> C.fail ~at "fabric snapshot: embedded link plan: %s" msg);
    fab.p <- { fab.p with fp_plan = plan }
  end;
  let ck = fab.ck in
  let injected_at = C.position io + 16 in
  fab.anchor <- C.int io ~lo:0 ~hi:max_time ~what:"fabric anchor" fab.anchor;
  ck.Leg.now <- C.xref io ~lo:fab.anchor ~hi:max_time ~what:"fabric cycle" ck.Leg.now;
  fab.injected <- C.nat io ~what:"injected" fab.injected;
  fab.delivered <- C.nat io ~what:"delivered" fab.delivered;
  fab.miss_dropped <- C.nat io ~what:"forwarding misses" fab.miss_dropped;
  fab.link_dropped <- C.nat io ~what:"link drops" fab.link_dropped;
  fab.last_event <- C.xref io ~lo:fab.anchor ~hi:ck.Leg.now ~what:"last event" fab.last_event;
  ck.Leg.last_score <- C.nat io ~what:"progress score" ck.Leg.last_score;
  ck.Leg.last_progress_t <-
    C.xref io ~lo:fab.anchor ~hi:ck.Leg.now ~what:"last progress cycle" ck.Leg.last_progress_t;
  fab.ed.Hashing.hi <- C.word io ~what:"exit digest" fab.ed.Hashing.hi;
  fab.ed.Hashing.lo <- C.word io ~what:"exit digest" fab.ed.Hashing.lo;
  fab.src.Hashing.hi <- C.word io ~what:"source digest" fab.src.Hashing.hi;
  fab.src.Hashing.lo <- C.word io ~what:"source digest" fab.src.Hashing.lo;
  injected_at

(* The most free slots a decoded node's metadata window may hold: seqs
   between its oldest and newest live packet whose packets have left.
   A run's windows stay far below it (a packet is overtaken only while
   it waits in its machine's queues); the cap keeps a forged window from
   sizing a table beyond what the snapshot's own entries account for. *)
let max_window_gap = 1 lsl 20

let node_corrupt i pos fmt = C.fail ~at:pos ("fabric node %d: " ^^ fmt) i

(* A packet injected into a switch and not yet admitted: the link it
   arrived on, its time and headers. *)
let no_input = { Machine.time = 0; port = 0; headers = [||] }

let pending_input io ~n_links (i : Machine.input) =
  let time = C.word io ~what:"pending packet time" i.Machine.time in
  let port = C.index io ~bound:n_links ~what:"pending packet port" i.Machine.port in
  let headers = C.int_array io ~what:"pending packet header" i.Machine.headers in
  if C.reading io then { Machine.time; port; headers } else i

let table_get metas slot f = if slot < 0 then 0 else Table.get metas slot f

(* A live packet's metadata entry at a switch: its local seq, which on
   a decode must be [seq], the next live one, then fabric seq,
   destination host (it indexes the forwarding table when the packet
   exits), injection cycle and hops. *)
let table_entry io fab ~node metas ~seq slot =
  let at = C.position io in
  let key = C.xword io ~what:"packet metadata key" seq in
  if key <> seq then node_corrupt node at "packet metadata key %d, expected live seq %d" key seq;
  let fseq =
    C.xref io ~lo:0 ~hi:(fab.injected - 1) ~what:"fabric seq" (table_get metas slot Table.fseq)
  in
  let dst =
    C.index io ~bound:(Topology.n_hosts fab.p.fp_topo) ~what:"fabric packet destination host"
      (table_get metas slot Table.dst)
  in
  let inject = C.word io ~what:"injection cycle" (table_get metas slot Table.inject) in
  let hops = C.nat io ~what:"hops" (table_get metas slot Table.hops) in
  if C.reading io then Table.add metas key ~fseq ~dst ~inject ~hops

(* After a node's machine frame: its pending packets, then the
   metadata of every live packet, in ascending local seq so the byte
   stream is canonical.  The live seqs are the in-flight packets',
   which the machine frame does not check, so on a decode they must be
   distinct and below the admitted count, then the pending ones', which
   follow it. *)
let node_state io fab i nd ~frame_at =
  let machine = if C.reading io then Sim.node_machine_seqs nd else [||] in
  let n_machine = Array.length machine in
  let first_pending = Sim.node_next_seq nd in
  for j = 0 to n_machine - 1 do
    let seq = machine.(j) in
    if seq < 0 || seq >= first_pending || (j > 0 && seq = machine.(j - 1)) then
      node_corrupt i frame_at "in-flight packet seq %d is not a distinct seq below %d admitted" seq
        first_pending
  done;
  let n_links = Topology.n_links fab.p.fp_topo in
  let n_pending = C.count io ~min_bytes:24 ~what:"pending packets" (Sim.node_backlog nd) in
  if C.reading io then
    for _ = 1 to n_pending do
      let i = pending_input io ~n_links no_input in
      let headers = i.Machine.headers in
      ignore
        (Sim.node_inject nd ~time:i.Machine.time ~port:i.Machine.port headers ~off:0 ~mask:(-1)
           ~n:(Array.length headers)
          : int)
    done
  else Sim.node_iter_pending nd (fun inp -> ignore (pending_input io ~n_links inp : Machine.input));
  let metas = fab.metas.(i) in
  let at = C.position io in
  let n_metas = C.xword io ~what:"packet metadata count" (Table.length metas) in
  if C.reading io then begin
    let live j = if j < n_machine then machine.(j) else first_pending + j - n_machine in
    if n_metas <> n_machine + n_pending then
      node_corrupt i at "%d packet metadata entries for %d live packets" n_metas
        (n_machine + n_pending);
    (* A window's free slots are packets that left while an older one
       stayed, up to the last one admitted, after which the resumed run
       adds its seqs; nothing in the snapshot bounds their count, so cap
       it before the table is sized from it. *)
    if n_metas > 0 then begin
      let last = first_pending + n_pending - 1 in
      let free = last - live 0 + 1 - n_metas in
      if free > max_window_gap then
        node_corrupt i at "live seqs %d..%d leave %d free slots (at most %d)" (live 0) last free
          max_window_gap;
      Table.reserve metas ~span:(live (n_metas - 1) - live 0 + 1)
    end;
    (* A node's packets are its seqs, so its next seq is bounded too:
       each packet it admitted was delivered, dropped or is in flight. *)
    let accounted = Sim.node_delivered nd + Sim.node_dropped nd + Sim.node_in_flight nd in
    if first_pending <> accounted then
      node_corrupt i frame_at "%d packets admitted, %d delivered, dropped or in flight"
        first_pending accounted;
    for j = 0 to n_metas - 1 do
      table_entry io fab ~node:i metas ~seq:(live j) (-1)
    done
  end
  else Table.iter metas (fun seq slot -> table_entry io fab ~node:i metas ~seq slot)

(* Every switch, in node order: its machine as a nested ["mp5-snap/1"]
   frame, then its state in the fabric. *)
let nodes io fab ~into =
  let n = Topology.n_switches fab.p.fp_topo in
  if C.xword io ~what:"node count" n <> n then
    raise (Restore_mismatch "snapshot node count does not match the topology");
  if C.reading io then
    make_nodes fab (fun i ~on_exit ~on_drop ->
        let into = match into with Some old -> Some old.nodes.(i) | None -> None in
        let frame_at = C.position io in
        let nd =
          match Sim.node_restore ?into ~on_exit ~on_drop io fab.prog with
          | Ok nd -> nd
          | Error (Sim.Corrupt msg) -> raise (Node_corrupt ("fabric snapshot: node: " ^ msg))
          | Error (Sim.Mismatch msg) -> raise (Restore_mismatch ("node: " ^ msg))
        in
        node_state io fab i nd ~frame_at;
        (* the fabric visited every cycle a node had work in *)
        let next = Sim.node_next_event nd ~now:(fab.ck.Leg.now - 1) in
        if next < fab.ck.Leg.now then
          node_corrupt i frame_at "machine event at cycle %d, before the fabric's cycle %d" next
            fab.ck.Leg.now;
        nd)
  else
    Array.iteri
      (fun i nd ->
        Sim.node_encode io nd;
        node_state io fab i nd ~frame_at:(-1))
      fab.nodes

let ring_get ring pos f = if pos < 0 then 0 else Ring.get ring pos f

(* A packet on a link: due cycle, last-hop latency, the input (time,
   port, headers), then its metadata.  Whatever was due before the
   cycle just stepped has been delivered, and a link never reorders:
   dues rise along the link up to its latest send's, [last]. *)
let link_entry io fab ring pos ~first ~last =
  let due =
    C.xref io ~lo:first ~hi:last ~what:"link packet due cycle" (ring_get ring pos Ring.due)
  in
  let aux = C.word io ~what:"link packet latency" (ring_get ring pos Ring.aux) in
  let time = C.word io ~what:"link packet time" (ring_get ring pos Ring.time) in
  let port = C.word io ~what:"link packet port" (ring_get ring pos Ring.port) in
  let nh = C.count io ~min_bytes:8 ~what:"array length" (ring_get ring pos Ring.nh) in
  let pos = if C.reading io then Ring.reserve ring ~nh else pos in
  Ring.set ring pos Ring.due due;
  Ring.set ring pos Ring.aux aux;
  Ring.set ring pos Ring.time time;
  Ring.set ring pos Ring.port port;
  for j = Ring.header_base to Ring.header_base + nh - 1 do
    Ring.set ring pos j (C.word io ~what:"link packet header" (Ring.get ring pos j))
  done;
  Ring.set ring pos Ring.fseq
    (C.xref io ~lo:0 ~hi:(fab.injected - 1) ~what:"fabric seq" (Ring.get ring pos Ring.fseq));
  Ring.set ring pos Ring.dst
    (C.index io ~bound:(Topology.n_hosts fab.p.fp_topo) ~what:"fabric packet destination host"
       (Ring.get ring pos Ring.dst));
  Ring.set ring pos Ring.inject (C.word io ~what:"injection cycle" (Ring.get ring pos Ring.inject));
  Ring.set ring pos Ring.hops (C.nat io ~what:"hops" (Ring.get ring pos Ring.hops));
  due

(* Each link's due cycle of its latest send, then its packets oldest
   first. *)
let links io fab =
  let n = Array.length fab.links in
  if C.xword io ~what:"link count" n <> n then
    raise (Restore_mismatch "snapshot link count does not match the topology");
  Array.iteri
    (fun li ring ->
      fab.last_due.(li) <- C.word io ~what:"link last due cycle" fab.last_due.(li);
      (* a packet is at least five ints and its metadata's four *)
      let n = C.count io ~min_bytes:72 ~what:"link packet count" (Ring.length ring) in
      let last = fab.last_due.(li) in
      if C.reading io then begin
        let first = ref (fab.ck.Leg.now - 1) in
        for _ = 1 to n do
          first := link_entry io fab ring (-1) ~first:!first ~last
        done
      end
      else Ring.iter ring (fun pos -> ignore (link_entry io fab ring pos ~first:0 ~last : int)))
    fab.links

let fabric io fab ~into =
  C.tag io 1 ~what:"fabric header";
  let injected_at = header io fab in
  C.tag io 2 ~what:"fabric histograms";
  Hist.codec io fab.hop_hist;
  Hist.codec io fab.e2e_hist;
  Hist.codec io fab.hops_hist;
  C.tag io 3 ~what:"fabric nodes";
  nodes io fab ~into;
  C.tag io 4 ~what:"fabric links";
  links io fab;
  C.tag io 5 ~what:"fabric end marker";
  if C.reading io && accounted fab <> fab.injected then
    C.fail ~at:injected_at "fabric snapshot: %d packets injected, %d accounted for" fab.injected
      (accounted fab)

let encode fab = C.encode ~magic:snap_magic (fun io -> fabric io fab ~into:None)

(* A parked fabric is decoded into only under the topology, routing
   policy and program (all physically) it ran: its forwarding table,
   node count and kernels are theirs.  The node machines make their own
   check of the snapshot's params ({!Sim.node_restore}). *)
let fits old p prog =
  old.p.fp_topo == p.fp_topo && old.p.fp_policy == p.fp_policy && old.prog == prog

let decode_fabric ?monitor ?into ~dst ~hosts p prog io =
  let fab = blank ?monitor ?into ~dst ~hosts ~anchor:0 p prog in
  fabric io fab ~into;
  if C.remaining io <> 0 then
    C.fail ~at:(C.position io) "fabric snapshot: trailing data after end marker";
  fab

(* --- the fabric as the leg loop's target ({!Leg}) --- *)

let finish fab =
  conservation_check fab fab.ck.Leg.now;
  let n = Array.length fab.nodes in
  let node_dropped = nodes_dropped fab in
  let access =
    Array.fold_left (fun acc nd -> Hashing.combine acc (Sim.node_access_digest nd)) 0 fab.nodes
  in
  let store_digest =
    let st = Hashing.start () in
    let feed = Hashing.feed st in
    Array.iteri
      (fun i nd ->
        feed i;
        let store = Sim.node_store nd in
        let n_regs = Array.length fab.prog.Transform.config.Config.regs in
        for reg = 0 to n_regs - 1 do
          Array.iter feed (Store.array store ~reg)
        done)
      fab.nodes;
    Hashing.value st
  in
  {
    fr_switches = n;
    fr_hosts = Topology.n_hosts fab.p.fp_topo;
    fr_injected = fab.injected;
    fr_delivered = fab.delivered;
    fr_node_dropped = node_dropped;
    fr_miss_dropped = fab.miss_dropped;
    fr_link_dropped = fab.link_dropped;
    fr_cycles = fab.last_event - fab.anchor + 1;
    fr_exit_digest = Hashing.value fab.ed;
    fr_access_digest = access;
    fr_store_digest = store_digest;
    fr_hop_hist = fab.hop_hist;
    fr_e2e_hist = fab.e2e_hist;
    fr_hops_hist = fab.hops_hist;
    fr_node_delivered = Array.map Sim.node_delivered fab.nodes;
    fr_node_dropped_by = Array.map Sim.node_dropped fab.nodes;
    fr_node_max_queue = Array.map Sim.node_max_queue fab.nodes;
  }

(* One fabric cycle: host injection, link delivery, then every switch
   one machine cycle in node order, its [on_exit] hook routing exits
   onward as they happen. *)
let step fab t =
  (match fab.mon with
  | Some mon when Monitor.due mon ~now:t -> conservation_check fab t
  | _ -> ());
  inject_phase fab t;
  delivery_phase fab t;
  for i = 0 to Array.length fab.nodes - 1 do
    Sim.node_step fab.nodes.(i) ~now:t
  done

(* With every switch empty the next event is an arrival, a link
   delivery, a link-plan edge or a node's own ({!Sim.node_next_event}),
   so a fabric visits exactly the boundaries a plain run does. *)
let next_event fab t =
  let e = if Psource.ready fab.hosts then Psource.time fab.hosts else max_int in
  let e = ref (Int.min (Int.min e (min_link_due fab)) (Linkplan.next_edge fab.p.fp_plan ~now:t)) in
  for i = 0 to Array.length fab.nodes - 1 do
    e := Int.min !e (Sim.node_next_event fab.nodes.(i) ~now:t)
  done;
  !e

let fabric =
  {
    Leg.clock = (fun fab -> fab.ck);
    live =
      (fun fab ->
        Psource.ready fab.hosts || any_node_work fab || min_link_due fab < max_int);
    busy = any_node_work;
    step;
    score =
      (fun fab ->
        fab.injected + fab.delivered + nodes_dropped fab + fab.miss_dropped + fab.link_dropped);
    next_event;
    encode;
    parked = Leg.parking ();
  }

let leg ~what fab ~cycle_budget ~sabotage =
  match Leg.run fabric ~what ?cycle_budget fab with
  | Some snap -> Suspended snap
  | None ->
      (* Testing hook: skew the accounting before the final check so the
         violation path (Monitor.report / Conservation, CLI exit 3) can
         be demonstrated end to end. *)
      if sabotage <> 0 then fab.injected <- fab.injected + sabotage;
      Completed (finish fab)

let run ?monitor ?cycle_budget ?(sabotage = 0) ~dst p prog source =
  let anchor =
    if Psource.ready source then Psource.time source else invalid_arg "Fabric.run: empty source"
  in
  if Psource.consumed source > 0 then
    invalid_arg "Fabric.run: source already partially consumed";
  leg ~what:"Fabric.run" (create ?monitor ~dst ~hosts:source ~anchor p prog) ~cycle_budget ~sabotage

(* A resume handed the very string a suspension in this domain returned
   decodes into the fabric that suspension parked, if it [fits].  The
   payload checksum is checked in lockstep with the node frames' (see
   {!Binio.of_string_deferred}) and completed before anything is
   reported: a decode error, even a mismatch, is only believed once the
   bytes it was read from have passed their checksum.  The host source
   is touched only after that. *)
let resume ?monitor ?cycle_budget ~dst ~snapshot p prog source =
  let parked = Leg.take fabric.Leg.parked snapshot in
  match Binio.of_string_deferred ~magic:snap_magic snapshot with
  | Error msg -> Error (Sim.Corrupt msg)
  | Ok r -> (
      let decoded =
        let into = match parked with Some old when fits old p prog -> Some old | _ -> None in
        match decode_fabric ?monitor ?into ~dst ~hosts:source p prog (C.reader r) with
        | fab -> Ok fab
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      match (Binio.verify r, decoded) with
      | Error msg, _ -> Error (Sim.Corrupt msg)
      | Ok (), Error (Restore_mismatch msg, _) -> Error (Sim.Mismatch msg)
      | Ok (), Error (Binio.Corrupt { pos; reason }, _) ->
          Error (Sim.Corrupt (Binio.corrupt_message ~pos ~reason))
      | Ok (), Error (Node_corrupt msg, _) -> Error (Sim.Corrupt msg)
      | Ok (), Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok (), Ok fab -> (
          match
            Leg.position source ~consumed:fab.injected ~digest:fab.src ~fold:feed_input
              ~what:"host source"
          with
          | Error msg -> Error (Sim.Mismatch msg)
          | Ok () -> Ok (leg ~what:"Fabric.resume" fab ~cycle_budget ~sabotage:0)))

(* --- result equality + printing --- *)

let results_equal a b =
  a.fr_switches = b.fr_switches && a.fr_hosts = b.fr_hosts && a.fr_injected = b.fr_injected
  && a.fr_delivered = b.fr_delivered
  && a.fr_node_dropped = b.fr_node_dropped
  && a.fr_miss_dropped = b.fr_miss_dropped
  && a.fr_link_dropped = b.fr_link_dropped
  && a.fr_cycles = b.fr_cycles
  && a.fr_exit_digest = b.fr_exit_digest
  && a.fr_access_digest = b.fr_access_digest
  && a.fr_store_digest = b.fr_store_digest
  && Hist.equal a.fr_hop_hist b.fr_hop_hist
  && Hist.equal a.fr_e2e_hist b.fr_e2e_hist
  && Hist.equal a.fr_hops_hist b.fr_hops_hist
  && a.fr_node_delivered = b.fr_node_delivered
  && a.fr_node_dropped_by = b.fr_node_dropped_by
  && a.fr_node_max_queue = b.fr_node_max_queue

let throughput r = if r.fr_cycles = 0 then 0.0 else float_of_int r.fr_delivered /. float_of_int r.fr_cycles

let pp_result ppf r =
  Format.fprintf ppf
    "fabric: %d switches, %d hosts@\n\
     injected:     %d@\n\
     delivered:    %d@\n\
     dropped:      %d (node) + %d (fwd miss) + %d (link)@\n\
     cycles:       %d@\n\
     throughput:   %.4f pkts/cycle@\n\
     hop latency:  p50=%d p99=%d max=%d@\n\
     e2e latency:  p50=%d p99=%d max=%d@\n\
     hops:         mean=%.2f max=%d@\n\
     exit digest:   %016x@\n\
     access digest: %016x@\n\
     store digest:  %016x"
    r.fr_switches r.fr_hosts r.fr_injected r.fr_delivered r.fr_node_dropped r.fr_miss_dropped
    r.fr_link_dropped r.fr_cycles (throughput r)
    (Hist.percentile r.fr_hop_hist 50.0)
    (Hist.percentile r.fr_hop_hist 99.0)
    r.fr_hop_hist.Hist.max
    (Hist.percentile r.fr_e2e_hist 50.0)
    (Hist.percentile r.fr_e2e_hist 99.0)
    r.fr_e2e_hist.Hist.max (Hist.mean r.fr_hops_hist) r.fr_hops_hist.Hist.max r.fr_exit_digest
    r.fr_access_digest r.fr_store_digest
