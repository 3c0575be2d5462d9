module Rng = Mp5_util.Rng
module Dist = Mp5_util.Dist
module Hashing = Mp5_util.Hashing
module Machine = Mp5_banzai.Machine

type pattern = Uniform | Skewed | Skewed_rotating of int | Uniform_bursty of int

let pattern_dist pattern ~n =
  match pattern with
  | Uniform | Uniform_bursty _ -> Dist.uniform_discrete n
  | Skewed | Skewed_rotating _ -> Dist.skewed ~n ~hot_fraction:0.3 ~hot_mass:0.95

type sensitivity_spec = {
  n_packets : int;
  k : int;
  pkt_bytes : int;
  n_fields : int;
  index_fields : int list;
  reg_size : int;
  pattern : pattern;
  n_ports : int;
  seed : int;
}

(* Arrival cycle of the i-th packet of size [bytes] at line rate. *)
let arrival_time ~k ~bytes i =
  (* inter-arrival = bytes / (64 * k) cycles; use integer arithmetic to
     stay exact: t_i = floor(i * bytes / (64 * k)). *)
  i * bytes / (64 * k)

(* The producer is the single source of truth for the draw sequence;
   the array builder below materializes it with an explicit in-order
   loop.  That construction — rather than two parallel [Array.init]
   bodies — is what makes "streamed runs are byte-identical to array
   runs" true without relying on evaluation-order folklore.  It writes
   each packet straight into the source's buffer and allocates nothing
   per packet: the index fields and their generators sit in two arrays,
   and the bursty pattern's hashes fold through one reused state. *)
let sensitivity_fill spec =
  let rng = Rng.create spec.seed in
  let dist = pattern_dist spec.pattern ~n:spec.reg_size in
  (* Independent index streams per field, so different arrays see
     different (but identically distributed) access sequences. *)
  let field_rngs = List.map (fun f -> (f, Rng.split rng)) spec.index_fields in
  let idx_fields = Array.of_list (List.map fst field_rngs)
  and idx_rngs = Array.of_list (List.map snd field_rngs) in
  (* [Hashing.fnv1a [a; b; c]] and [[a; b; c; d]] without the lists: a
     state fed the seed 0, then each key. *)
  let hs = Hashing.start () in
  let fnv3 a b c =
    Hashing.reset hs;
    Hashing.feed hs 0;
    Hashing.feed hs a;
    Hashing.feed hs b;
    Hashing.feed hs c;
    Hashing.value hs
  in
  let fnv4 a b c d =
    Hashing.reset hs;
    Hashing.feed hs 0;
    Hashing.feed hs a;
    Hashing.feed hs b;
    Hashing.feed hs c;
    Hashing.feed hs d;
    Hashing.value hs
  in
  let place i field idx =
    match spec.pattern with
    | Skewed_rotating window ->
        (* Shift the hot block by a fixed stride every [window] packets. *)
        (idx + (i / max 1 window * ((spec.reg_size / 5) + 1))) mod spec.reg_size
    | Uniform | Skewed -> idx
    | Uniform_bursty window ->
        let n = spec.reg_size in
        let active = max 1 (n / 10) in
        (* 90% of draws hit the current window's active block; the
           decision bit comes from an independent hash so the uniform
           tail covers every cell. *)
        let h = fnv4 i field idx spec.seed in
        if h mod 10 < 9 then
          let start = fnv3 (i / max 1 window) field spec.seed mod n in
          (start + (h / 10 mod active)) mod n
        else idx
  in
  let next = ref 0 in
  fun src ->
    !next < spec.n_packets
    && begin
         let i = !next in
         incr next;
         let headers =
           Packet_source.set src
             ~time:(arrival_time ~k:spec.k ~bytes:spec.pkt_bytes i)
             ~port:(i mod spec.n_ports) ~n:spec.n_fields
         in
         for f = 0 to spec.n_fields - 1 do
           headers.(f) <- Rng.int rng 1024
         done;
         for j = 0 to Array.length idx_fields - 1 do
           let f = idx_fields.(j) in
           headers.(f) <- place i f (Dist.sample idx_rngs.(j) dist)
         done;
         true
       end

let sensitivity_source spec =
  Packet_source.of_fill ~total:spec.n_packets (sensitivity_fill spec)

let sensitivity spec =
  let src = sensitivity_source spec in
  match Packet_source.next src with
  | None -> [||]
  | Some first ->
      let a = Array.make spec.n_packets first in
      for i = 1 to spec.n_packets - 1 do
        a.(i) <- (match Packet_source.next src with Some p -> p | None -> assert false)
      done;
      a

type flow_packet = {
  flow : int;
  src : int;
  dst : int;
  sport : int;
  dport : int;
  bytes : int;
  time : int;
  port : int;
  seqno : int;
}

let bimodal_datacenter = Dist.bimodal ~lo:200 ~hi:1400 ~lo_prob:0.5

type active_flow = {
  af_id : int;
  af_src : int;
  af_dst : int;
  af_sport : int;
  af_dport : int;
  mutable af_remaining : int;  (* packets left *)
  mutable af_sent : int;
}

let flows_gen ~seed ~k ~concurrency ?(sizes = bimodal_datacenter)
    ?(n_ports = 64) ?(flow_sizes = `Websearch) () =
  let sample_flow_packets =
    match flow_sizes with
    | `Websearch -> Websearch.sample_flow_packets
    | `Datamining -> Datamining.sample_flow_packets
  in
  let rng = Rng.create seed in
  let mean = Dist.mean_bimodal sizes in
  let next_id = ref 0 in
  let fresh_flow () =
    let id = !next_id in
    incr next_id;
    {
      af_id = id;
      af_src = Rng.int rng 0x1000000;
      af_dst = Rng.int rng 0x1000000;
      af_sport = 1024 + Rng.int rng 60000;
      af_dport = Rng.int rng 1024;
      af_remaining = sample_flow_packets rng ~mean_pkt_bytes:mean;
      af_sent = 0;
    }
  in
  (* Slot 0's flow is drawn first, then 1..n-1 — the same order
     [Array.init] used when this was the array builder. *)
  let active = Array.make (max 1 concurrency) (fresh_flow ()) in
  for slot = 1 to Array.length active - 1 do
    active.(slot) <- fresh_flow ()
  done;
  let total_bytes = ref 0 in
  (* One packet per call; the caller stops after [n_packets]. *)
  fun () ->
    let slot = Rng.int rng (Array.length active) in
    let f = active.(slot) in
    let bytes = Dist.sample_bimodal rng sizes in
    let time = !total_bytes / (64 * k) in
    total_bytes := !total_bytes + bytes;
    let pkt =
      {
        flow = f.af_id;
        src = f.af_src;
        dst = f.af_dst;
        sport = f.af_sport;
        dport = f.af_dport;
        bytes;
        time;
        port = f.af_id mod n_ports;
        seqno = f.af_sent;
      }
    in
    f.af_sent <- f.af_sent + 1;
    f.af_remaining <- f.af_remaining - 1;
    if f.af_remaining <= 0 then active.(slot) <- fresh_flow ();
    pkt

let flows ~seed ~n_packets ~k ~concurrency ?sizes ?n_ports () =
  if n_packets <= 0 then [||]
  else begin
    let gen = flows_gen ~seed ~k ~concurrency ?sizes ?n_ports () in
    let a = Array.make n_packets (gen ()) in
    for i = 1 to n_packets - 1 do
      a.(i) <- gen ()
    done;
    a
  end

(* The flow packet and [fill]'s header array are the two allocations
   per packet left on this path: [fill] is the app's adapter. *)
let flow_source ~seed ~n_packets ~k ~concurrency ?sizes ?n_ports ?flow_sizes ~fill () =
  let gen = flows_gen ~seed ~k ~concurrency ?sizes ?n_ports ?flow_sizes () in
  let emitted = ref 0 in
  Packet_source.of_fill ~total:n_packets (fun src ->
      !emitted < n_packets
      && begin
           incr emitted;
           let p = gen () in
           let h = fill p in
           let n = Array.length h in
           Array.blit h 0 (Packet_source.set src ~time:p.time ~port:p.port ~n) 0 n;
           true
         end)

let headers_of_flows pkts ~fill =
  Array.map
    (fun p -> { Machine.time = p.time; port = p.port; headers = fill p })
    pkts
