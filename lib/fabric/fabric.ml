module Machine = Mp5_banzai.Machine
module Sim = Mp5_core.Sim
module Transform = Mp5_core.Transform
module Psource = Mp5_workload.Packet_source
module Pool = Mp5_util.Pool
module Hashing = Mp5_util.Hashing
module Binio = Mp5_util.Binio
module Vec = Mp5_util.Vec
module Monitor = Mp5_fault.Monitor
module Linkplan = Mp5_fault.Linkplan
module Store = Mp5_banzai.Store
module Config = Mp5_banzai.Config

let digest_mask = 0x3FFF_FFFF_FFFF_FFFF

(* --- latency histograms ---

   Log2-bucketed, constant size, integer-only: two fabrics that ran the
   same packets produce structurally equal histograms, so cross-jobs
   identity checks can compare them exactly while the bench layer reads
   approximate percentiles off the buckets. *)

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

(* Per-packet fabric metadata, keyed by (node, local seq) while the
   packet is inside or queued at a switch, and carried inside the flight
   record while it is on a link.  Bounded: an entry exists only while
   its packet does. *)
type meta = {
  m_fseq : int;         (* fabric-wide injection sequence *)
  m_dst : int;          (* destination host *)
  m_inject : int;       (* cycle injected at the source host *)
  mutable m_hops : int; (* switches traversed so far *)
}

type flight = {
  f_due : int;          (* nominal arrival cycle at the link's far end *)
  f_aux : int;          (* host-bound: last-hop pipeline latency *)
  f_input : Machine.input;
  f_meta : meta;
}

type link_state = { ls_q : flight Queue.t; mutable ls_last_due : int }

type params = {
  fp_sim : Sim.params;
  fp_topo : Topology.t;
  fp_policy : Routing.policy;
  fp_plan : Linkplan.plan;
}

type t = {
  p : params;
  prog : Transform.t;
  fwd : int array array;                     (* switch -> dst host -> egress port *)
  team : Pool.Team.t option;
  mon : Monitor.t option;
  dst_of : Machine.input -> int;
  nodes : Sim.node array;
  metas : (int, meta) Hashtbl.t array;       (* per node, local seq -> meta *)
  links : link_state array;
  (* per-node egress buffers filled by the Sim hooks during node
     stepping (each node writes only its own buffers, so parallel
     stepping stays race-free) and drained sequentially in node order *)
  exits : (int * int * int array) Vec.t array;  (* (seq, latency, headers) *)
  drops : int Vec.t array;
  anchor : int;
  mutable now : int;
  mutable visited : int;
  mutable injected : int;
  mutable delivered : int;                   (* packets handed to hosts *)
  mutable miss_dropped : int;
  mutable link_dropped : int;
  mutable last_event : int;
  mutable last_score : int;
  mutable last_progress_t : int;
  mutable ed_hi : int;
  mutable ed_lo : int;                       (* fabric exit digest *)
  mutable src_hi : int;
  mutable src_lo : int;                      (* host source digest *)
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

let feed_pair hi lo x = Hashing.feed_int_halves hi lo x

(* --- construction --- *)

let make_nodes ~compiled params prog n exits drops anchor =
  Array.init n (fun i ->
      let on_exit ~seq ~latency ~headers = Vec.push exits.(i) (seq, latency, headers) in
      let on_drop ~seq = Vec.push drops.(i) seq in
      Sim.node_create ~compiled ~anchor ~on_exit ~on_drop params prog)

let create ?team ?monitor ?(compiled = true) ~dst ~anchor p prog =
  (match Linkplan.validate p.fp_plan ~n_links:(Topology.n_links p.fp_topo) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fabric.create: " ^ msg));
  let n = Topology.n_switches p.fp_topo in
  let exits = Array.init n (fun _ -> Vec.create ()) in
  let drops = Array.init n (fun _ -> Vec.create ()) in
  {
    p;
    prog;
    fwd = Routing.compile p.fp_policy p.fp_topo;
    team;
    mon = monitor;
    dst_of = dst;
    nodes = make_nodes ~compiled p.fp_sim prog n exits drops anchor;
    metas = Array.init n (fun _ -> Hashtbl.create 64);
    links = Array.init (Topology.n_links p.fp_topo) (fun _ -> { ls_q = Queue.create (); ls_last_due = 0 });
    exits;
    drops;
    anchor;
    now = anchor;
    visited = 0;
    injected = 0;
    delivered = 0;
    miss_dropped = 0;
    link_dropped = 0;
    last_event = anchor;
    last_score = 0;
    last_progress_t = anchor;
    ed_hi = Hashing.fnv_offset_hi;
    ed_lo = Hashing.fnv_offset_lo;
    src_hi = Hashing.fnv_offset_hi;
    src_lo = Hashing.fnv_offset_lo;
    hop_hist = Hist.create ();
    e2e_hist = Hist.create ();
    hops_hist = Hist.create ();
  }

(* --- per-cycle machinery --- *)

(* Enqueue onto a link.  The due cycle is clamped to the link's previous
   tail so a link never reorders — a link-delay window opening cannot
   let a later packet overtake an earlier delayed one. *)
let send fab ~now ~link ~aux input m =
  if Linkplan.is_down fab.p.fp_plan ~now ~link then begin
    fab.link_dropped <- fab.link_dropped + 1;
    fab.last_event <- now
  end
  else begin
    let l = Topology.link fab.p.fp_topo link in
    let base =
      match l.Topology.l_src with
      | Topology.Host _ -> now + l.Topology.l_delay
      | Topology.Switch _ -> (
          match l.Topology.l_dst with
          | Topology.Host _ -> now + l.Topology.l_delay
          | Topology.Switch _ -> now + 1 + l.Topology.l_delay)
    in
    let due = base + Linkplan.extra_delay fab.p.fp_plan ~now ~link in
    let ls = fab.links.(link) in
    let due = if due < ls.ls_last_due then ls.ls_last_due else due in
    ls.ls_last_due <- due;
    Queue.push { f_due = due; f_aux = aux; f_input = input; f_meta = m } ls.ls_q
  end

(* Host injection: every source packet due at (or before) this cycle
   enters its source host's uplink. *)
let inject_phase fab t source =
  let continue_ = ref true in
  while !continue_ do
    match Psource.peek source with
    | Some input when input.Machine.time <= t ->
        ignore (Psource.next source : Machine.input option);
        let hi, lo = feed_pair fab.src_hi fab.src_lo input.Machine.time in
        let hi, lo = feed_pair hi lo input.Machine.port in
        let hi, lo =
          Array.fold_left
            (fun (hi, lo) x -> feed_pair hi lo x)
            (hi, lo) input.Machine.headers
        in
        fab.src_hi <- hi;
        fab.src_lo <- lo;
        let fseq = fab.injected in
        fab.injected <- fab.injected + 1;
        let n_hosts = Topology.n_hosts fab.p.fp_topo in
        let src = input.Machine.port mod n_hosts in
        let dst = fab.dst_of input in
        if dst < 0 || dst >= n_hosts then begin
          (* No deliverable destination: a forwarding miss at ingress. *)
          fab.miss_dropped <- fab.miss_dropped + 1;
          fab.last_event <- t
        end
        else
          let m = { m_fseq = fseq; m_dst = dst; m_inject = input.Machine.time; m_hops = 0 } in
          send fab ~now:t ~link:(Topology.host_uplink fab.p.fp_topo src) ~aux:0 input m
    | _ -> continue_ := false
  done

(* Link delivery, ascending link id, FIFO within a link — the (link-id,
   seq) handoff order that makes results independent of [--jobs]. *)
let delivery_phase fab t =
  Array.iteri
    (fun li ls ->
      let continue_ = ref true in
      while !continue_ do
        match Queue.peek_opt ls.ls_q with
        | Some fl when fl.f_due <= t -> (
            ignore (Queue.pop ls.ls_q : flight);
            match (Topology.link fab.p.fp_topo li).Topology.l_dst with
            | Topology.Switch s ->
                let input =
                  { fl.f_input with Machine.time = t; port = li }
                in
                let lseq = Sim.node_inject fab.nodes.(s) input in
                Hashtbl.replace fab.metas.(s) lseq fl.f_meta
            | Topology.Host _ ->
                (* Delivered.  The exit digest folds (fabric seq,
                   last-hop pipeline latency, headers) in delivery
                   order, which for a one-switch fabric is the sim's
                   exit order — the degenerate differential pin. *)
                let m = fl.f_meta in
                fab.delivered <- fab.delivered + 1;
                fab.last_event <- t;
                let hi, lo = feed_pair fab.ed_hi fab.ed_lo m.m_fseq in
                let hi, lo = feed_pair hi lo fl.f_aux in
                let hi, lo =
                  Array.fold_left
                    (fun (hi, lo) x -> feed_pair hi lo x)
                    (hi, lo) fl.f_input.Machine.headers
                in
                fab.ed_hi <- hi;
                fab.ed_lo <- lo;
                Hist.observe fab.e2e_hist (fl.f_due - m.m_inject);
                Hist.observe fab.hops_hist m.m_hops)
        | _ -> continue_ := false
      done)
    fab.links

(* Lock-step node stepping: one switch per team member slot, strided.
   Each node touches only its own machine and its own egress buffers,
   and every shared mutation happens outside this phase, so any [jobs]
   produces identical state at the barrier. *)
let step_phase fab t =
  let n = Array.length fab.nodes in
  match fab.team with
  | Some tm when Pool.Team.size tm > 1 ->
      let jobs = Pool.Team.size tm in
      Pool.Team.run tm (fun member ->
          let i = ref member in
          while !i < n do
            Sim.node_step fab.nodes.(!i) ~now:t;
            i := !i + jobs
          done)
  | _ ->
      for i = 0 to n - 1 do
        Sim.node_step fab.nodes.(i) ~now:t
      done

(* Drain the per-node egress buffers in node order: drops release their
   metadata, exits consult the forwarding table and enter their next
   link (or fall off as a counted miss). *)
let egress_phase fab t =
  Array.iteri
    (fun i dv ->
      for j = 0 to Vec.length dv - 1 do
        Hashtbl.remove fab.metas.(i) (Vec.get dv j)
      done;
      Vec.clear dv)
    fab.drops;
  Array.iteri
    (fun i ev ->
      for j = 0 to Vec.length ev - 1 do
        let seq, latency, headers = Vec.get ev j in
        match Hashtbl.find_opt fab.metas.(i) seq with
        | None -> failwith "Fabric: exited packet has no metadata (driver bug)"
        | Some m ->
            Hashtbl.remove fab.metas.(i) seq;
            m.m_hops <- m.m_hops + 1;
            Hist.observe fab.hop_hist latency;
            let port = if m.m_dst < Array.length fab.fwd.(i) then fab.fwd.(i).(m.m_dst) else -1 in
            if port < 0 then begin
              fab.miss_dropped <- fab.miss_dropped + 1;
              fab.last_event <- t
            end
            else begin
              let link = (Topology.out_links fab.p.fp_topo i).(port) in
              let aux =
                match (Topology.link fab.p.fp_topo link).Topology.l_dst with
                | Topology.Host _ -> latency
                | Topology.Switch _ -> 0
              in
              let input = { Machine.time = t; port = link; headers } in
              send fab ~now:t ~link ~aux input m
            end
      done;
      Vec.clear ev)
    fab.exits

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
  let on_links = Array.fold_left (fun acc ls -> acc + Queue.length ls.ls_q) 0 fab.links in
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

let min_link_due fab =
  Array.fold_left
    (fun acc ls -> match Queue.peek_opt ls.ls_q with Some fl -> min acc fl.f_due | None -> acc)
    max_int fab.links

let any_node_work fab =
  Array.exists (fun nd -> Sim.node_in_flight nd > 0 || Sim.node_backlog nd > 0) fab.nodes

let links_empty fab = Array.for_all (fun ls -> Queue.is_empty ls.ls_q) fab.links

(* --- snapshots ("mp5-fab/1") --- *)

let snap_magic = "mp5-fab/1"
let snapshot_magic = snap_magic

let w_input w (i : Machine.input) =
  Binio.w_int w i.Machine.time;
  Binio.w_int w i.Machine.port;
  Binio.w_int_array w i.Machine.headers

let r_input r =
  let time = Binio.r_int r in
  let port = Binio.r_int r in
  let headers = Binio.r_int_array r in
  { Machine.time; port; headers }

let w_meta w m =
  Binio.w_int w m.m_fseq;
  Binio.w_int w m.m_dst;
  Binio.w_int w m.m_inject;
  Binio.w_int w m.m_hops

let r_meta r =
  let m_fseq = Binio.r_int r in
  let m_dst = Binio.r_int r in
  let m_inject = Binio.r_int r in
  let m_hops = Binio.r_int r in
  { m_fseq; m_dst; m_inject; m_hops }

let encode fab =
  let w = Binio.writer () in
  Binio.w_tag w 1;
  Binio.w_int w (Topology.digest fab.p.fp_topo);
  Binio.w_int w (Routing.digest fab.p.fp_policy);
  Binio.w_string w (Linkplan.to_string fab.p.fp_plan);
  Binio.w_int w fab.anchor;
  Binio.w_int w fab.now;
  Binio.w_int w fab.injected;
  Binio.w_int w fab.delivered;
  Binio.w_int w fab.miss_dropped;
  Binio.w_int w fab.link_dropped;
  Binio.w_int w fab.last_event;
  Binio.w_int w fab.last_score;
  Binio.w_int w fab.last_progress_t;
  Binio.w_int w fab.ed_hi;
  Binio.w_int w fab.ed_lo;
  Binio.w_int w fab.src_hi;
  Binio.w_int w fab.src_lo;
  Binio.w_tag w 2;
  Hist.encode w fab.hop_hist;
  Hist.encode w fab.e2e_hist;
  Hist.encode w fab.hops_hist;
  Binio.w_tag w 3;
  Binio.w_int w (Array.length fab.nodes);
  Array.iteri
    (fun i nd ->
      Sim.node_encode w nd;
      let pending = Sim.node_pending nd in
      Binio.w_int w (List.length pending);
      List.iter (fun input -> w_input w input) pending;
      (* All live metadata for this node (pending + in-machine), sorted
         by local seq so the byte stream is canonical. *)
      let entries =
        Hashtbl.fold (fun k m acc -> (k, m) :: acc) fab.metas.(i) []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Binio.w_int w (List.length entries);
      List.iter
        (fun (k, m) ->
          Binio.w_int w k;
          w_meta w m)
        entries)
    fab.nodes;
  Binio.w_tag w 4;
  Binio.w_int w (Array.length fab.links);
  Array.iter
    (fun ls ->
      Binio.w_int w ls.ls_last_due;
      Binio.w_int w (Queue.length ls.ls_q);
      Queue.iter
        (fun fl ->
          Binio.w_int w fl.f_due;
          Binio.w_int w fl.f_aux;
          w_input w fl.f_input;
          w_meta w fl.f_meta)
        ls.ls_q)
    fab.links;
  Binio.w_tag w 5;
  Binio.to_string ~magic:snap_magic w

exception Restore_mismatch of string

let decode_fabric ?team ?monitor ~compiled ~dst p prog r =
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
  Binio.r_tag r ~expect:3 ~what:"fabric nodes";
  let n = Binio.r_int r in
  if n <> Topology.n_switches p.fp_topo then
    raise (Restore_mismatch "snapshot node count does not match the topology");
  let exits = Array.init n (fun _ -> Vec.create ()) in
  let drops = Array.init n (fun _ -> Vec.create ()) in
  let metas = Array.init n (fun _ -> Hashtbl.create 64) in
  let nodes =
    Array.init n (fun i ->
        let on_exit ~seq ~latency ~headers = Vec.push exits.(i) (seq, latency, headers) in
        let on_drop ~seq = Vec.push drops.(i) seq in
        let nd =
          match Sim.node_restore ~compiled ~on_exit ~on_drop r prog with
          | Ok nd -> nd
          | Error (Sim.Corrupt msg) -> failwith ("fabric snapshot: node: " ^ msg)
          | Error (Sim.Mismatch msg) -> raise (Restore_mismatch ("node: " ^ msg))
        in
        let n_pending = Binio.r_int r in
        for _ = 1 to n_pending do
          ignore (Sim.node_inject nd (r_input r) : int)
        done;
        let n_metas = Binio.r_int r in
        for _ = 1 to n_metas do
          let k = Binio.r_int r in
          Hashtbl.replace metas.(i) k (r_meta r)
        done;
        nd)
  in
  Binio.r_tag r ~expect:4 ~what:"fabric links";
  let n_links = Binio.r_int r in
  if n_links <> Topology.n_links p.fp_topo then
    raise (Restore_mismatch "snapshot link count does not match the topology");
  let links =
    Array.init n_links (fun _ ->
        let ls_last_due = Binio.r_int r in
        let ls = { ls_q = Queue.create (); ls_last_due } in
        let n_fl = Binio.r_int r in
        for _ = 1 to n_fl do
          let f_due = Binio.r_int r in
          let f_aux = Binio.r_int r in
          let f_input = r_input r in
          let f_meta = r_meta r in
          Queue.push { f_due; f_aux; f_input; f_meta } ls.ls_q
        done;
        ls)
  in
  Binio.r_tag r ~expect:5 ~what:"fabric end marker";
  if Binio.remaining r <> 0 then failwith "fabric snapshot: trailing data after end marker";
  {
    p;
    prog;
    fwd = Routing.compile p.fp_policy p.fp_topo;
    team;
    mon = monitor;
    dst_of = dst;
    nodes;
    metas;
    links;
    exits;
    drops;
    anchor;
    now;
    visited = 0;
    injected;
    delivered;
    miss_dropped;
    link_dropped;
    last_event;
    last_score;
    last_progress_t;
    ed_hi;
    ed_lo;
    src_hi;
    src_lo;
    hop_hist;
    e2e_hist;
    hops_hist;
  }

(* --- the drive loop --- *)

let finish fab =
  conservation_check fab fab.now;
  Array.iter Sim.node_final_check fab.nodes;
  let n = Array.length fab.nodes in
  let node_dropped = Array.fold_left (fun acc nd -> acc + Sim.node_dropped nd) 0 fab.nodes in
  let access =
    Array.fold_left (fun acc nd -> (acc + Sim.node_access_digest nd) land digest_mask) 0 fab.nodes
  in
  let store_digest =
    let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
    let feed x =
      let h, l = Hashing.feed_int_halves !hi !lo x in
      hi := h;
      lo := l
    in
    Array.iteri
      (fun i nd ->
        feed i;
        let store = Sim.node_store nd in
        let n_regs = Array.length fab.prog.Transform.config.Config.regs in
        for reg = 0 to n_regs - 1 do
          Array.iter feed (Store.array store ~reg)
        done)
      fab.nodes;
    Hashing.finish (!hi, !lo)
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
    fr_exit_digest = Hashing.finish (fab.ed_hi, fab.ed_lo);
    fr_access_digest = access;
    fr_store_digest = store_digest;
    fr_hop_hist = fab.hop_hist;
    fr_e2e_hist = fab.e2e_hist;
    fr_hops_hist = fab.hops_hist;
    fr_node_delivered = Array.map Sim.node_delivered fab.nodes;
    fr_node_dropped_by = Array.map Sim.node_dropped fab.nodes;
    fr_node_max_queue = Array.map Sim.node_max_queue fab.nodes;
  }

let drive fab source ~cycle_budget ~sabotage =
  let has_next () = match Psource.peek source with Some _ -> true | None -> false in
  let running = ref true in
  let suspended = ref None in
  while
    !running && (has_next () || any_node_work fab || not (links_empty fab))
  do
    let pause = match cycle_budget with Some b -> fab.visited >= b | None -> false in
    if pause then begin
      suspended := Some (encode fab);
      running := false
    end
    else begin
      let t = fab.now in
      (match fab.mon with
      | Some mon when Monitor.due mon ~now:t -> conservation_check fab t
      | _ -> ());
      inject_phase fab t source;
      delivery_phase fab t;
      step_phase fab t;
      egress_phase fab t;
      (* Progress guard against driver deadlock bugs. *)
      let node_dropped = Array.fold_left (fun acc nd -> acc + Sim.node_dropped nd) 0 fab.nodes in
      let score =
        fab.injected + fab.delivered + node_dropped + fab.miss_dropped + fab.link_dropped
      in
      if score > fab.last_score then begin
        fab.last_score <- score;
        fab.last_progress_t <- t
      end
      else if t - fab.last_progress_t > 200_000 then
        failwith "Fabric.run: no progress for 200000 cycles (deadlock?)";
      (* Idle fast-forward: with every switch empty, jump to the next
         event — arrival, link delivery, phantom delivery, remap
         boundary (remaps move cells even while idle), or a link-plan
         edge.  Mirrors the single-switch generic loop's discipline so
         a fabric visits exactly the boundaries a plain run does. *)
      (if any_node_work fab then fab.now <- t + 1
       else begin
         let next = ref max_int in
         (match Psource.peek source with
         | Some i -> next := min !next (max (t + 1) i.Machine.time)
         | None -> ());
         let ld = min_link_due fab in
         if ld < max_int then next := min !next (max (t + 1) ld);
         Array.iter
           (fun nd ->
             match Sim.node_next_due nd with
             | Some d -> next := min !next (max (t + 1) d)
             | None -> ())
           fab.nodes;
         let period = fab.p.fp_sim.Sim.remap_period in
         if period > 0 then begin
           let boundary = t + period - ((t - fab.anchor) mod period) in
           next := min !next boundary
         end;
         let e = Linkplan.next_edge fab.p.fp_plan ~now:t in
         if e < max_int then next := min !next (max (t + 1) e);
         Array.iter
           (fun nd ->
             let e = Sim.node_fault_edge nd in
             if e < max_int then next := min !next (max (t + 1) e))
           fab.nodes;
         fab.now <- (if !next = max_int then t + 1 else !next)
       end);
      fab.visited <- fab.visited + 1
    end
  done;
  match !suspended with
  | Some snap -> Suspended snap
  | None ->
      (* Testing hook: skew the accounting before the final check so the
         violation path (Monitor.report / Conservation, CLI exit 3) can
         be demonstrated end to end. *)
      if sabotage <> 0 then fab.injected <- fab.injected + sabotage;
      Completed (finish fab)

let run ?team ?monitor ?cycle_budget ?(compiled = true) ?(sabotage = 0) ~dst p prog source =
  let anchor =
    match Psource.peek source with
    | Some i -> i.Machine.time
    | None -> invalid_arg "Fabric.run: empty source"
  in
  if Psource.consumed source > 0 then
    invalid_arg "Fabric.run: source already partially consumed";
  let fab = create ?team ?monitor ~compiled ~dst ~anchor p prog in
  drive fab source ~cycle_budget ~sabotage

let resume ?team ?monitor ?cycle_budget ?(compiled = true) ~dst ~snapshot p prog source =
  match Binio.of_string ~magic:snap_magic snapshot with
  | Error msg -> Error (Sim.Corrupt msg)
  | Ok r -> (
      match decode_fabric ?team ?monitor ~compiled ~dst p prog r with
      | exception Restore_mismatch msg -> Error (Sim.Mismatch msg)
      | exception Binio.Corrupt { pos; reason } ->
          Error (Sim.Corrupt (Binio.corrupt_message ~pos ~reason))
      | exception Failure msg -> Error (Sim.Corrupt msg)
      | fab -> (
          (* Position the host source exactly as [Sim.resume] does: a
             source at the snapshot's cursor is used as-is, a fresh one
             replays the injected prefix under the digest. *)
          let position () =
            match Psource.consumed source with
            | c when c = fab.injected -> ()
            | 0 ->
                let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
                for i = 0 to fab.injected - 1 do
                  match Psource.next source with
                  | None ->
                      raise
                        (Restore_mismatch
                           (Printf.sprintf
                              "host source ended after %d packets; snapshot injected %d" i
                              fab.injected))
                  | Some input ->
                      let h, l = feed_pair !hi !lo input.Machine.time in
                      let h, l = feed_pair h l input.Machine.port in
                      let h, l =
                        Array.fold_left
                          (fun (h, l) x -> feed_pair h l x)
                          (h, l) input.Machine.headers
                      in
                      hi := h;
                      lo := l
                done;
                if !hi <> fab.src_hi || !lo <> fab.src_lo then
                  raise
                    (Restore_mismatch
                       "host source does not replay the checkpointed fabric's packets")
            | c ->
                raise
                  (Restore_mismatch
                     (Printf.sprintf
                        "host source already consumed %d packets; snapshot expects 0 or %d" c
                        fab.injected))
          in
          match position () with
          | exception Restore_mismatch msg -> Error (Sim.Mismatch msg)
          | () -> Ok (drive fab source ~cycle_budget ~sabotage:0)))

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
