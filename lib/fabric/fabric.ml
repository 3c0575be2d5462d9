module Machine = Mp5_banzai.Machine
module Sim = Mp5_core.Sim
module Leg = Mp5_core.Leg
module Transform = Mp5_core.Transform
module Psource = Mp5_workload.Packet_source
module Hashing = Mp5_util.Hashing
module Binio = Mp5_util.Binio
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

  let encode w t =
    Binio.w_int w t.count;
    Binio.w_int w t.sum;
    Binio.w_int w t.max;
    Binio.w_int_array w t.buckets

  let decode r =
    let count = Binio.r_int r in
    let sum = Binio.r_int r in
    let max = Binio.r_int r in
    let buckets = Binio.r_int_array r in
    if Array.length buckets <> n_buckets then failwith "fabric snapshot: histogram shape";
    { count; sum; max; buckets }
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
  p : params;
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
  anchor : int;
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
   headers. *)
let feed_input st (input : Machine.input) =
  Hashing.feed st input.Machine.time;
  Hashing.feed st input.Machine.port;
  let headers = input.Machine.headers in
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
   enters its source host's uplink. *)
let inject_phase fab t =
  let n_hosts = Topology.n_hosts fab.p.fp_topo in
  let continue_ = ref true in
  while !continue_ do
    match Psource.peek fab.hosts with
    | Some input when input.Machine.time <= t ->
        ignore (Psource.next fab.hosts : Machine.input option);
        feed_input fab.src input;
        let fseq = fab.injected in
        fab.injected <- fab.injected + 1;
        let src = input.Machine.port mod n_hosts in
        let dst = fab.dst_of input in
        if dst < 0 || dst >= n_hosts then begin
          (* No deliverable destination: a forwarding miss at ingress. *)
          fab.miss_dropped <- fab.miss_dropped + 1;
          fab.last_event <- t
        end
        else begin
          let time = input.Machine.time and headers = input.Machine.headers in
          send fab ~now:t ~link:(Topology.host_uplink fab.p.fp_topo src) ~aux:0 ~fseq ~dst
            ~inject:time ~hops:0 ~time ~port:input.Machine.port headers ~off:0
            ~n:(Array.length headers)
        end
    | _ -> continue_ := false
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
        let input = { Machine.time = t; port = li; headers = Ring.headers ring pos } in
        let lseq = Sim.node_inject fab.nodes.(s) input in
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
let conservation_check fab t =
  let in_nodes = ref 0 and backlog = ref 0 and node_dropped = ref 0 in
  Array.iter
    (fun nd ->
      in_nodes := !in_nodes + Sim.node_in_flight nd;
      backlog := !backlog + Sim.node_backlog nd;
      node_dropped := !node_dropped + Sim.node_dropped nd)
    fab.nodes;
  let on_links = Array.fold_left (fun acc ring -> acc + Ring.length ring) 0 fab.links in
  let accounted =
    !in_nodes + !backlog + on_links + fab.delivered + !node_dropped + fab.miss_dropped
    + fab.link_dropped
  in
  if accounted <> fab.injected then begin
    let msg =
      Printf.sprintf
        "fabric conservation violated at cycle %d: injected %d <> %d accounted (%d in \
         switches + %d queued + %d on links + %d delivered + %d node-dropped + %d \
         fwd-miss + %d link-dropped)"
        t fab.injected accounted !in_nodes !backlog on_links fab.delivered !node_dropped
        fab.miss_dropped fab.link_dropped
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

(* --- snapshots ("mp5-fab/1") --- *)

let snap_magic = "mp5-fab/1"
let w_input w (i : Machine.input) =
  Binio.w_int w i.Machine.time;
  Binio.w_int w i.Machine.port;
  Binio.w_int_array w i.Machine.headers

let r_input r =
  let time = Binio.r_int r in
  let port = Binio.r_int r in
  let headers = Binio.r_int_array r in
  { Machine.time; port; headers }

(* A packet's metadata is written (fabric seq, destination, injection
   cycle, hops), wherever it is held. *)
let w_meta w ~fseq ~dst ~inject ~hops =
  Binio.w_int w fseq;
  Binio.w_int w dst;
  Binio.w_int w inject;
  Binio.w_int w hops

let r_dst ~n_hosts r = Binio.r_index r ~bound:n_hosts ~what:"fabric packet destination host"

let encode_into fab w =
  Binio.w_tag w 1;
  Binio.w_int w (Topology.digest fab.p.fp_topo);
  Binio.w_int w (Routing.digest fab.p.fp_policy);
  Binio.w_string w (Linkplan.to_string fab.p.fp_plan);
  Binio.w_int w fab.anchor;
  Binio.w_int w fab.ck.Leg.now;
  Binio.w_int w fab.injected;
  Binio.w_int w fab.delivered;
  Binio.w_int w fab.miss_dropped;
  Binio.w_int w fab.link_dropped;
  Binio.w_int w fab.last_event;
  Binio.w_int w fab.ck.Leg.last_score;
  Binio.w_int w fab.ck.Leg.last_progress_t;
  Binio.w_int w fab.ed.Hashing.hi;
  Binio.w_int w fab.ed.Hashing.lo;
  Binio.w_int w fab.src.Hashing.hi;
  Binio.w_int w fab.src.Hashing.lo;
  Binio.w_tag w 2;
  Hist.encode w fab.hop_hist;
  Hist.encode w fab.e2e_hist;
  Hist.encode w fab.hops_hist;
  Binio.w_tag w 3;
  Binio.w_int w (Array.length fab.nodes);
  Array.iteri
    (fun i nd ->
      Sim.node_encode w nd;
      Binio.w_int w (Sim.node_backlog nd);
      Sim.node_iter_pending nd (w_input w);
      (* All live metadata for this node (pending + in-machine), in
         ascending local seq so the byte stream is canonical. *)
      let metas = fab.metas.(i) in
      Binio.w_int w (Table.length metas);
      Table.iter metas (fun seq slot ->
          Binio.w_int w seq;
          w_meta w ~fseq:(Table.get metas slot Table.fseq) ~dst:(Table.get metas slot Table.dst)
            ~inject:(Table.get metas slot Table.inject) ~hops:(Table.get metas slot Table.hops)))
    fab.nodes;
  Binio.w_tag w 4;
  Binio.w_int w (Array.length fab.links);
  (* Each link's packets oldest first: due, aux, the input (time,
     port, headers as an int array), then the metadata. *)
  Array.iteri
    (fun li ring ->
      Binio.w_int w fab.last_due.(li);
      Binio.w_int w (Ring.length ring);
      Ring.iter ring (fun pos ->
          let field k = Ring.get ring pos k in
          Binio.w_int w (field Ring.due);
          Binio.w_int w (field Ring.aux);
          Binio.w_int w (field Ring.time);
          Binio.w_int w (field Ring.port);
          Binio.w_int w (field Ring.nh);
          for j = 0 to field Ring.nh - 1 do
            Binio.w_int w (field (Ring.header_base + j))
          done;
          w_meta w ~fseq:(field Ring.fseq) ~dst:(field Ring.dst) ~inject:(field Ring.inject)
            ~hops:(field Ring.hops)))
    fab.links;
  Binio.w_tag w 5

let encode fab = Binio.to_string ~magic:snap_magic (encode_into fab)

exception Restore_mismatch of string

(* A parked fabric is decoded into only under the topology, routing
   policy and program (all physically) it ran: its forwarding table,
   node count and kernels are theirs.  The node machines make their own
   check of the snapshot's params ({!Sim.node_restore}). *)
let fits old p prog =
  old.p.fp_topo == p.fp_topo && old.p.fp_policy == p.fp_policy && old.prog == prog

(* The most free slots a decoded node's metadata window may hold: seqs
   between its oldest and newest live packet whose packets have left.
   A run's windows stay far below it (a packet is overtaken only while
   it waits in its machine's queues); the cap keeps a forged window from
   sizing a table beyond what the snapshot's own entries account for. *)
let max_window_gap = 1 lsl 20

let node_corrupt i pos fmt =
  Printf.ksprintf
    (fun reason ->
      raise (Binio.Corrupt { pos; reason = Printf.sprintf "fabric node %d: %s" i reason }))
    fmt

let decode_fabric ?monitor ?into ~dst ~hosts p prog r =
  Binio.r_tag r ~expect:1 ~what:"fabric header";
  let topo_dig = Binio.r_int r in
  if topo_dig <> Topology.digest p.fp_topo then
    raise (Restore_mismatch "snapshot was taken against a different topology");
  let pol_dig = Binio.r_int r in
  if pol_dig <> Routing.digest p.fp_policy then
    raise (Restore_mismatch "snapshot was taken against a different routing policy");
  let plan_text = Binio.r_string r in
  let plan =
    match Linkplan.parse plan_text with
    | Ok plan -> plan
    | Error msg -> failwith ("fabric snapshot: embedded link plan: " ^ msg)
  in
  let p = { p with fp_plan = plan } in
  let anchor = Binio.r_int r in
  let now = Binio.r_int r in
  let injected = Binio.r_int r in
  let delivered = Binio.r_int r in
  let miss_dropped = Binio.r_int r in
  let link_dropped = Binio.r_int r in
  let last_event = Binio.r_int r in
  let last_score = Binio.r_int r in
  let last_progress_t = Binio.r_int r in
  let ed_hi = Binio.r_int r in
  let ed_lo = Binio.r_int r in
  let src_hi = Binio.r_int r in
  let src_lo = Binio.r_int r in
  Binio.r_tag r ~expect:2 ~what:"fabric histograms";
  let hop_hist = Hist.decode r in
  let e2e_hist = Hist.decode r in
  let hops_hist = Hist.decode r in
  let fab =
    {
      (blank ?monitor ?into ~dst ~hosts ~anchor p prog) with
      ck = { Leg.now; last_score; last_progress_t; visited = 0 };
      injected;
      delivered;
      miss_dropped;
      link_dropped;
      last_event;
      ed = { Hashing.hi = ed_hi; lo = ed_lo };
      src = { Hashing.hi = src_hi; lo = src_lo };
      hop_hist;
      e2e_hist;
      hops_hist;
    }
  in
  let n_hosts = Topology.n_hosts p.fp_topo in
  Binio.r_tag r ~expect:3 ~what:"fabric nodes";
  if Binio.r_int r <> Topology.n_switches p.fp_topo then
    raise (Restore_mismatch "snapshot node count does not match the topology");
  make_nodes fab (fun i ~on_exit ~on_drop ->
      let into = match into with Some old -> Some old.nodes.(i) | None -> None in
      let frame_at = Binio.position r in
      let nd =
        match Sim.node_restore ?into ~on_exit ~on_drop r prog with
        | Ok nd -> nd
        | Error (Sim.Corrupt msg) -> failwith ("fabric snapshot: node: " ^ msg)
        | Error (Sim.Mismatch msg) -> raise (Restore_mismatch ("node: " ^ msg))
      in
      (* The live local seqs: the in-flight packets', which the machine
         frame does not check, so they must be distinct and below the
         admitted count, then the pending ones', which follow it. *)
      let machine = Sim.node_machine_seqs nd in
      let n_machine = Array.length machine in
      let first_pending = Sim.node_next_seq nd in
      for j = 0 to n_machine - 1 do
        let seq = machine.(j) in
        if seq < 0 || seq >= first_pending || (j > 0 && seq = machine.(j - 1)) then
          node_corrupt i frame_at "in-flight packet seq %d is not a distinct seq below %d admitted"
            seq first_pending
      done;
      let n_pending = Binio.r_count r ~min_bytes:24 ~what:"pending packets" in
      for _ = 1 to n_pending do
        ignore (Sim.node_inject nd (r_input r) : int)
      done;
      let live j = if j < n_machine then machine.(j) else first_pending + j - n_machine in
      let at = Binio.position r in
      let n_metas = Binio.r_int r in
      if n_metas <> n_machine + n_pending then
        node_corrupt i at "%d packet metadata entries for %d live packets" n_metas
          (n_machine + n_pending);
      (* A window's free slots are packets that left while an older one
         stayed; nothing in the snapshot bounds their count, so cap it
         before the table is sized from it. *)
      let metas = fab.metas.(i) in
      if n_metas > 0 then begin
        let span = live (n_metas - 1) - live 0 + 1 in
        if span - n_metas > max_window_gap then
          node_corrupt i at "live seqs %d..%d leave %d free slots (at most %d)" (live 0)
            (live (n_metas - 1)) (span - n_metas) max_window_gap;
        Table.reserve metas ~span
      end;
      (* The keys must be exactly those seqs, in that order. *)
      for j = 0 to n_metas - 1 do
        let at = Binio.position r in
        let seq = Binio.r_int r in
        if seq <> live j then
          node_corrupt i at "packet metadata key %d, expected live seq %d" seq (live j);
        let fseq = Binio.r_int r in
        let dst = r_dst ~n_hosts r in
        let inject = Binio.r_int r in
        let hops = Binio.r_int r in
        Table.add metas seq ~fseq ~dst ~inject ~hops
      done;
      nd);
  Binio.r_tag r ~expect:4 ~what:"fabric links";
  if Binio.r_int r <> Array.length fab.links then
    raise (Restore_mismatch "snapshot link count does not match the topology");
  Array.iteri
    (fun li ring ->
      fab.last_due.(li) <- Binio.r_int r;
      let n_fl = Binio.r_int r in
      for _ = 1 to n_fl do
        let due = Binio.r_int r in
        let aux = Binio.r_int r in
        let time = Binio.r_int r in
        let port = Binio.r_int r in
        let nh = Binio.r_array_length r in
        let pos = Ring.reserve ring ~nh in
        Ring.set ring pos Ring.due due;
        Ring.set ring pos Ring.aux aux;
        Ring.set ring pos Ring.time time;
        Ring.set ring pos Ring.port port;
        for j = 0 to nh - 1 do
          Ring.set ring pos (Ring.header_base + j) (Binio.r_int r)
        done;
        Ring.set ring pos Ring.fseq (Binio.r_int r);
        Ring.set ring pos Ring.dst (r_dst ~n_hosts r);
        Ring.set ring pos Ring.inject (Binio.r_int r);
        Ring.set ring pos Ring.hops (Binio.r_int r)
      done)
    fab.links;
  Binio.r_tag r ~expect:5 ~what:"fabric end marker";
  if Binio.remaining r <> 0 then failwith "fabric snapshot: trailing data after end marker";
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
  let e = match Psource.peek fab.hosts with Some i -> i.Machine.time | None -> max_int in
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
        Option.is_some (Psource.peek fab.hosts) || any_node_work fab || min_link_due fab < max_int);
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
    match Psource.peek source with
    | Some i -> i.Machine.time
    | None -> invalid_arg "Fabric.run: empty source"
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
        match decode_fabric ?monitor ?into ~dst ~hosts:source p prog r with
        | fab -> Ok fab
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      match (Binio.verify r, decoded) with
      | Error msg, _ -> Error (Sim.Corrupt msg)
      | Ok (), Error (Restore_mismatch msg, _) -> Error (Sim.Mismatch msg)
      | Ok (), Error (Binio.Corrupt { pos; reason }, _) ->
          Error (Sim.Corrupt (Binio.corrupt_message ~pos ~reason))
      | Ok (), Error (Failure msg, _) -> Error (Sim.Corrupt msg)
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
