(* The three benchmark workloads.  Each is built from the seed alone (the
   program receives only generated inputs), and exposes its set-up calls,
   one closed-loop op, and the oracle every op is checked against. *)

module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Equiv = Mp5_core.Equiv
module Psource = Mp5_workload.Packet_source
module Tracegen = Mp5_workload.Tracegen
module Trace_io = Mp5_workload.Trace_io
module Metrics = Mp5_obs.Metrics
module Prof = Mp5_obs.Prof
module Monitor = Mp5_fault.Monitor
module Fabric = Mp5_fabric.Fabric
module Topology = Mp5_fabric.Topology
module Routing = Mp5_fabric.Routing
module Traffic = Mp5_fabric.Traffic
module Stats = Mp5_util.Stats

let now = Prof.now

let median xs = Stats.percentile (Array.of_list xs) 50.

(* Median wall time of [reps] calls of [f], in ns. *)
let median_ns ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         float_of_int (now () - t0)))

(* Modelled (simulated, deterministic) end-to-end results of the oracle. *)
type model = { tput : float; lat_p99 : float; deliver_frac : float }

type t = {
  programs : (string * int) list;
      (** Domino sources (with [pad_to_stages]) the workload compiles *)
  setup : unit -> unit;  (** the calls timed as [setup_s] *)
  loop_fast : bool;
      (** whether the op forces the fast cycle loop; every op passes its
          loop explicitly, and a forced [Fast] on an ineligible run raises,
          so a wrong loop shows as a failed op *)
  round : int;  (** ops per round; the timed loop stops on round boundaries *)
  op : Span.t option -> int -> int * (unit -> bool);
      (** [op spans i] runs op [i] and returns its offered packets and
          its oracle check, which the driver calls outside the timed
          window *)
  finish : unit -> int list * model;
      (** after the timed loop: compute the oracle (once per seed) and
          return the indices of ops whose output differs from it *)
  layers : traced_pkts:int -> Span.layer list -> (string * float) list;
      (** per-layer metrics of the traced run, after [finish] *)
}

(* Distinct outputs seen across ops, each with the indices of the ops
   that produced it — normally a single group — so every op is checked
   against an oracle computed once, after the timed loop. *)
type 'a seen = { eq : 'a -> 'a -> bool; mutable groups : ('a * int list) list }

let seen eq = { eq; groups = [] }

let observe s i x =
  let rec go = function
    | [] -> [ (x, [ i ]) ]
    | (y, is) :: rest when s.eq x y -> (y, i :: is) :: rest
    | g :: rest -> g :: go rest
  in
  s.groups <- go s.groups

let mismatches s oracle =
  List.concat_map (fun (y, is) -> if s.eq y oracle then [] else is) s.groups

let k = 4

(* The §4.3 default machine: 4 stateful stages of 512 entries, padded to
   the 16 stages of the modelled 64-port switch. *)
let reg_size = 512
let sensitivity = Mp5_apps.Sources.sensitivity_program ~stateful:4 ~reg_size

let per_pkt x pkts = if pkts = 0 then 0. else x /. float_of_int pkts

let layer_per_pkt layers name pkts f =
  match Span.find layers name with Some l -> per_pkt (f l) pkts | None -> 0.

let ns l = float_of_int l.Span.total_ns
let words l = l.Span.words

let phase_pcts prof =
  let wall = float_of_int (Prof.wall_ns prof) in
  List.map
    (fun ph ->
      ( "sim.phase." ^ Prof.phase_name ph ^ "_pct",
        if wall = 0. then 0. else 100. *. float_of_int (Prof.total_ns prof ph) /. wall ))
    Prof.[ Deliver; Apply; Pop; Exec; Movement; Sweep; Source; Remap ]

(* Modelled-design counters, summed over metered runs. *)
let design (ms : Metrics.t list) ~pkts ~max_queue =
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  let tot f = sum (fun m -> Metrics.total (f m)) in
  let busy = tot (fun m -> m.Metrics.m_busy) and idle = tot (fun m -> m.Metrics.m_idle) in
  let blocked = tot (fun m -> m.Metrics.m_blocked) in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("sim.max_queue", float_of_int max_queue);
    ("sim.blocked_slot_frac", frac blocked (busy + idle + blocked));
    ("sim.remap_moves", float_of_int (sum (fun m -> m.Metrics.m_remap_moves)));
    ( "sim.xbar_cross_frac",
      frac (tot (fun m -> m.Metrics.m_xfer_cross)) (tot (fun m -> m.Metrics.m_xfer)) );
    ("sim.phantom_per_pkt", frac (sum (fun m -> m.Metrics.m_phantom_scheduled)) pkts);
  ]

(* Cost of attaching Metrics + Monitor to a run, as a percentage over
   the bare run: [pairs] alternating bare/attached timings, median
   ratio.  [attached ()] returns the metered run's outputs. *)
let attached_pct ~pairs ~bare ~attached =
  let ratios =
    List.init pairs (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (bare ()));
        let t1 = now () in
        ignore (Sys.opaque_identity (attached ()));
        let t2 = now () in
        float_of_int (t2 - t1) /. float_of_int (max 1 (t1 - t0)))
  in
  100. *. (median ratios -. 1.)

(* Median cost of draining a fresh source [mk ()] outside any op, as
   (ns, words allocated).  The ops stream their generator inside the
   simulator call, so the generator is costed on its own here and
   subtracted from the enclosing layer. *)
let drain_cost ~reps mk =
  let runs =
    List.init reps (fun _ ->
        let g0 = Gc.counters () in
        let t0 = now () in
        let s = mk () in
        let rec go () = match Psource.next s with Some _ -> go () | None -> () in
        go ();
        let t1 = now () in
        let g1 = Gc.counters () in
        (float_of_int (t1 - t0), Span.alloc_of g1 -. Span.alloc_of g0))
  in
  (median (List.map fst runs), median (List.map snd runs))

let stages_of (sw : Switch.t) =
  Array.length sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages

(* --- switch-linerate ---------------------------------------------------

   One op is a bare [Sim.run_source] over a fresh generator: 64 B packets
   at line rate (k per cycle), Skewed_rotating so D2 remaps move cells.
   The fast loop and the generator do nearly all the work. *)

let switch_packets = 4_000

(* Ops cycle through this many traffic seeds derived from the run's
   seed, so the modelled metrics describe a sample of traffic, not one
   trace. *)
let switch_variants = 4

let lats_of (r : Sim.result) = List.map (fun (_, l) -> float_of_int l) r.Sim.latencies

let switch_linerate ~seed =
  let n = switch_packets in
  let sw = Switch.create_exn ~pad_to_stages:16 sensitivity in
  let prog = sw.Switch.prog in
  let params = { (Sim.default_params ~k) with Sim.shard_init = `Random 7 } in
  let specs =
    Array.init switch_variants (fun j ->
        {
          Tracegen.n_packets = n;
          k;
          pkt_bytes = 64;
          n_fields = 6;
          index_fields = [ 0; 1; 2; 3 ];
          reg_size;
          pattern = Tracegen.Skewed_rotating (n / 8);
          n_ports = 64;
          seed = (seed * switch_variants) + j;
        })
  in
  let outputs = Array.map (fun _ -> seen Sim.summary_equal) specs in
  let op spans i =
    let j = i mod switch_variants in
    let outcome =
      Span.with_ spans "sim" (fun () ->
          Sim.run_source ~loop:Sim.Fast params prog (Tracegen.sensitivity_source specs.(j)))
    in
    ( n,
      fun () ->
        match outcome with
        | Sim.Completed s ->
            observe outputs.(j) i s;
            true
        | Sim.Suspended _ -> false )
  in
  (* The oracle: the generic loop over each materialized trace, metered
     for the modelled-design counters (a pure observer). *)
  let oracle =
    lazy
      (Array.map
         (fun spec ->
           let m = Metrics.create ~stages:(stages_of sw) ~k in
           (Sim.run ~loop:Sim.Generic ~metrics:m params prog (Tracegen.sensitivity spec), m))
         specs)
  in
  let total = n * switch_variants in
  let sum f = Array.fold_left (fun acc (r, _) -> acc + f r) 0 (Lazy.force oracle) in
  let finish () =
    let rs = Array.map fst (Lazy.force oracle) in
    ( List.concat
        (Array.to_list
           (Array.mapi (fun j r -> mismatches outputs.(j) (Sim.summary_of_result ~packets:n r)) rs)),
      {
        tput = Stats.mean (Array.map (fun r -> r.Sim.normalized_throughput) rs);
        lat_p99 = Stats.percentile (Array.of_list (List.concat_map lats_of (Array.to_list rs))) 99.;
        deliver_frac = per_pkt (float_of_int (sum (fun r -> r.Sim.delivered))) total;
      } )
  in
  let layers ~traced_pkts ls =
    let cycles = sum (fun r -> r.Sim.cycles) in
    let gen_ns, gen_words = drain_cost ~reps:9 (fun () -> Tracegen.sensitivity_source specs.(0)) in
    let sim f = layer_per_pkt ls "sim" traced_pkts f in
    (* The phase split, from its own sampled-profiler run (which keeps
       the fast loop) outside the timed ops. *)
    let prof = Prof.create ~mode:Prof.Sampled () in
    ignore (Sim.run_source ~loop:Sim.Fast ~prof params prog (Tracegen.sensitivity_source specs.(0)));
    let trace = Tracegen.sensitivity specs.(0) in
    let mon = ref (Monitor.create ()) in
    let attached =
      attached_pct ~pairs:5
        ~bare:(fun () -> Sim.run params prog trace)
        ~attached:(fun () ->
          mon := Monitor.create ();
          let m = Metrics.create ~stages:(stages_of sw) ~k in
          Sim.run ~metrics:m ~monitor:!mon params prog trace)
    in
    let r0, _ = (Lazy.force oracle).(0) in
    [
      ("tracegen.ns_per_pkt", per_pkt gen_ns n);
      ("tracegen.words_per_pkt", per_pkt gen_words n);
      ("sim.ns_per_pkt", sim ns -. per_pkt gen_ns n);
      ("sim.words_per_pkt", sim words -. per_pkt gen_words n);
      ("sim.promoted_words_per_pkt", sim (fun l -> l.Span.promoted));
      ("sim.cycles_per_pkt", per_pkt (float_of_int cycles) total);
      ("obs.attached_pct", attached);
      ( "monitor.checks_per_kcycle",
        1000. *. float_of_int (Monitor.checks !mon) /. float_of_int (max 1 r0.Sim.cycles) );
    ]
    @ phase_pcts prof
    @ design
        (Array.to_list (Array.map snd (Lazy.force oracle)))
        ~pkts:total
        ~max_queue:(Array.fold_left (fun acc (r, _) -> max acc r.Sim.max_queue) 0 (Lazy.force oracle))
  in
  {
    programs = [ (sensitivity, 16) ];
    setup = (fun () -> ignore (Switch.create_exn ~pad_to_stages:16 sensitivity));
    loop_fast = true;
    round = switch_variants;
    op;
    finish;
    layers;
  }

(* --- apps-verify -------------------------------------------------------

   The Figure 8 apps plus the two transformer-fallback apps, on web-search
   flow traffic written as text trace files before timing.  One op takes
   every app in turn, loads its file and runs [Switch.verify] with
   Metrics and Monitor attached: generic loop in collect mode, golden
   machine, Equiv.  A whole pass keeps op times alike, where single
   apps differ fourfold.  The op spells out [Switch.verify]'s three
   calls so the traced run can put a span around each; traced and
   untraced ops run the same code. *)

let app_names = [| "flowlet"; "conga"; "wfq"; "sequencer"; "ddos"; "pointer_chase" |]
let app_packets = 1_500

type app = {
  name : string;
  src : string;
  sw : Switch.t;
  path : string;
  bytes : int;
  trace : Mp5_banzai.Machine.input array;
  flow_of : int -> int;
  outputs : Sim.summary seen;
}

let apps_verify ~seed ~dir =
  let apps =
    Array.mapi
      (fun i name ->
        let src = List.assoc name Mp5_apps.Sources.all_named in
        let pkts =
          Tracegen.flows ~seed:((seed * 100) + i) ~n_packets:app_packets ~k ~concurrency:128 ()
        in
        let trace = Mp5_apps.Traces.trace_for name pkts in
        let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace" name seed) in
        Trace_io.save ~path trace;
        {
          name;
          src;
          sw = Switch.create_exn src;
          path;
          bytes = String.length (Trace_io.to_string trace);
          trace;
          flow_of = Mp5_apps.Traces.flow_of pkts;
          outputs = seen Sim.summary_equal;
        })
      app_names
  in
  let traced_bytes = ref 0 in
  let verify spans i a =
    let trace =
      match Span.with_ spans "trace_io.load" (fun () -> Trace_io.load ~path:a.path) with
      | Ok t -> t
      | Error e -> failwith e
    in
    if spans <> None then traced_bytes := !traced_bytes + a.bytes;
    let m = Metrics.create ~stages:(stages_of a.sw) ~k in
    let mon = Monitor.create ~fail_fast:false () in
    let golden = Span.with_ spans "golden" (fun () -> Switch.golden a.sw trace) in
    let r =
      Span.with_ spans "sim" (fun () ->
          Switch.run ~loop:Sim.Generic ~metrics:m ~monitor:mon ~k a.sw trace)
    in
    let rep =
      Span.with_ spans "equiv" (fun () ->
          Equiv.compare ~golden ~n_packets:(Array.length trace) ~store:r.Sim.store
            ~headers_out:r.Sim.headers_out ~access_seqs:r.Sim.access_seqs ~flow_of:a.flow_of
            ~exit_order:r.Sim.exit_order ())
    in
    let pkts = Array.length trace in
    ( pkts,
      fun () ->
        observe a.outputs i (Sim.summary_of_result ~packets:pkts r);
        Equiv.equivalent rep && rep.Equiv.c1_violations = 0 && Monitor.ok mon
        && Metrics.validate m = Ok () )
  in
  let op spans i =
    let runs = Array.map (verify spans i) apps in
    ( Array.fold_left (fun acc (pkts, _) -> acc + pkts) 0 runs,
      fun () -> Array.fold_left (fun ok (_, check) -> check () && ok) true runs )
  in
  (* The oracle per app: the bare run (fast loop, no instrumentation)
     over the in-memory trace — the op's metered generic run from the
     parsed file must land on the same summary. *)
  let oracle = lazy (Array.map (fun a -> Switch.run ~k a.sw a.trace) apps) in
  let finish () =
    let rs = Lazy.force oracle in
    let bad =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun j a ->
                mismatches a.outputs
                  (Sim.summary_of_result ~packets:(Array.length a.trace) rs.(j)))
              apps))
    in
    let lats =
      Array.concat
        (Array.to_list
           (Array.map
              (fun r -> Array.of_list (List.map (fun (_, l) -> float_of_int l) r.Sim.latencies))
              rs))
    in
    let pkts = Array.fold_left (fun acc a -> acc + Array.length a.trace) 0 apps in
    ( bad,
      {
        tput = Stats.mean (Array.map (fun r -> r.Sim.normalized_throughput) rs);
        lat_p99 = Stats.percentile lats 99.;
        deliver_frac =
          per_pkt (float_of_int (Array.fold_left (fun acc r -> acc + r.Sim.delivered) 0 rs)) pkts;
      } )
  in
  let layers ~traced_pkts ls =
    let rs = Lazy.force oracle in
    let pkts = Array.fold_left (fun acc a -> acc + Array.length a.trace) 0 apps in
    let cycles = Array.fold_left (fun acc r -> acc + r.Sim.cycles) 0 rs in
    (* Metered runs of every app: the attached half of obs.attached_pct,
       and the source of the monitor and modelled-design counters. *)
    let metered () =
      Array.map
        (fun a ->
          let m = Metrics.create ~stages:(stages_of a.sw) ~k in
          let mon = Monitor.create () in
          let r = Switch.run ~metrics:m ~monitor:mon ~k a.sw a.trace in
          (r, m, mon))
        apps
    in
    let last = ref [||] in
    let attached =
      attached_pct ~pairs:3
        ~bare:(fun () -> Array.map (fun a -> Switch.run ~k a.sw a.trace) apps)
        ~attached:(fun () -> last := metered ())
    in
    let runs = Array.to_list !last in
    (* The phase split, from its own full-profiler run of every app. *)
    let prof = Prof.create ~mode:Prof.Full () in
    Array.iter (fun a -> ignore (Switch.run ~loop:Sim.Generic ~prof ~k a.sw a.trace)) apps;
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 runs in
    let parsed_s = match Span.find ls "trace_io.load" with Some l -> ns l /. 1e9 | None -> 0. in
    [
      ( "trace_io.parse_mb_per_s",
        if parsed_s = 0. then 0. else float_of_int !traced_bytes /. 1e6 /. parsed_s );
      ("trace_io.words_per_byte", layer_per_pkt ls "trace_io.load" !traced_bytes words);
      ("sim.ns_per_pkt", layer_per_pkt ls "sim" traced_pkts ns);
      ("sim.words_per_pkt", layer_per_pkt ls "sim" traced_pkts words);
      ("sim.promoted_words_per_pkt", layer_per_pkt ls "sim" traced_pkts (fun l -> l.Span.promoted));
      ("sim.cycles_per_pkt", per_pkt (float_of_int cycles) pkts);
      ("golden.ns_per_pkt", layer_per_pkt ls "golden" traced_pkts ns);
      ("golden.words_per_pkt", layer_per_pkt ls "golden" traced_pkts words);
      ("equiv.ns_per_pkt", layer_per_pkt ls "equiv" traced_pkts ns);
      ("obs.attached_pct", attached);
      ( "monitor.checks_per_kcycle",
        1000. *. per_pkt (float_of_int (sum (fun (_, _, mon) -> Monitor.checks mon))) cycles );
    ]
    @ design
        (List.map (fun (_, m, _) -> m) runs)
        ~pkts
        ~max_queue:(List.fold_left (fun acc (r, _, _) -> max acc r.Sim.max_queue) 0 runs)
    @ phase_pcts prof
  in
  {
    programs = Array.to_list (Array.map (fun a -> (a.src, 0)) apps);
    setup = (fun () -> Array.iter (fun a -> ignore (Switch.create_exn a.src)) apps);
    loop_fast = false;
    round = 1;
    op;
    finish;
    layers;
  }

(* --- fabric-checkpointed -----------------------------------------------

   A 2x2 leaf-spine (2 hosts per leaf, trunk delay 1) running the §4.3
   machine in every switch, seeded all-to-all traffic at n_hosts/2
   packets per cycle, a Monitor at epoch 64.  The op drains the fabric
   through [Fabric.run]/[Fabric.resume] with a fixed cycle budget, so
   every chunk ends in an mp5-fab/1 encode and the next starts with a
   decode.  Fabric nodes always step through the generic loop. *)

let fabric_packets = 2_000
let fabric_budget = 500

let fabric_checkpointed ~seed =
  let n = fabric_packets in
  let topology () = Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  let topo = topology () in
  let sw = Switch.create_exn ~pad_to_stages:16 sensitivity in
  let prog = sw.Switch.prog in
  let n_fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
  let spec =
    {
      (Traffic.default_spec topo) with
      Traffic.n_packets = n;
      n_fields;
      index_fields = List.init n_fields Fun.id;
      reg_size;
      seed;
    }
  in
  let fp =
    {
      Fabric.fp_sim = Sim.default_params ~k;
      fp_topo = topo;
      fp_policy = Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  let dst = Traffic.dst_of_input spec in
  let outputs = seen Fabric.results_equal in
  let snap_bytes = ref 0 and snaps = ref 0 in
  let op spans i =
    let source = Traffic.source spec in
    let mon = Monitor.create ~epoch:64 ~fail_fast:false () in
    let leg f = Span.with_ spans "fabric.leg" f in
    let rec drain = function
      | Fabric.Completed r -> r
      | Fabric.Suspended snap -> (
          if spans <> None then begin
            snap_bytes := !snap_bytes + String.length snap;
            incr snaps
          end;
          match
            leg (fun () ->
                Fabric.resume ~monitor:mon ~cycle_budget:fabric_budget ~dst ~snapshot:snap fp prog
                  source)
          with
          | Ok o -> drain o
          | Error (Sim.Corrupt m | Sim.Mismatch m) -> failwith ("fabric resume: " ^ m))
    in
    let r = drain (leg (fun () -> Fabric.run ~monitor:mon ~cycle_budget:fabric_budget ~dst fp prog source)) in
    ( n,
      fun () ->
        observe outputs i r;
        Monitor.ok mon && Monitor.checks mon > 0 )
  in
  (* The oracle: the uninterrupted drain, conservation-monitored. *)
  let oracle =
    lazy
      (let mon = Monitor.create ~epoch:64 () in
       match Fabric.run ~monitor:mon ~dst fp prog (Traffic.source spec) with
       | Fabric.Completed r -> (r, mon)
       | Fabric.Suspended _ -> failwith "fabric oracle suspended without a budget")
  in
  let finish () =
    let r, _ = Lazy.force oracle in
    let dropped = r.Fabric.fr_node_dropped + r.Fabric.fr_miss_dropped + r.Fabric.fr_link_dropped in
    ( mismatches outputs r,
      {
        tput = Fabric.throughput r /. float_of_int spec.Traffic.per_cycle;
        lat_p99 = float_of_int (Fabric.Hist.percentile r.Fabric.fr_e2e_hist 99.);
        deliver_frac = 1. -. per_pkt (float_of_int dropped) r.Fabric.fr_injected;
      } )
  in
  let layers ~traced_pkts ls =
    let r, mon = Lazy.force oracle in
    let gen_ns, gen_words = drain_cost ~reps:9 (fun () -> Traffic.source spec) in
    let traced_ops = traced_pkts / n in
    let hops = r.Fabric.fr_hops_hist.Fabric.Hist.sum * traced_ops in
    let pkts_per_hop = float_of_int traced_pkts /. float_of_int (max 1 hops) in
    let leg f = layer_per_pkt ls "fabric.leg" traced_pkts f in
    (* A mid-run snapshot, resumed for one cycle against a source
       positioned at its cursor: decode + one fabric cycle + encode. *)
    let pkts =
      let s = Traffic.source spec in
      Array.of_seq (Seq.of_dispenser (fun () -> Psource.next s))
    in
    let positioned consumed =
      let s = Psource.of_array pkts in
      for _ = 1 to consumed do ignore (Psource.next s) done;
      s
    in
    let mid = Psource.of_array pkts in
    let snap =
      match Fabric.run ~cycle_budget:(r.Fabric.fr_cycles / 2) ~dst fp prog mid with
      | Fabric.Suspended snap -> snap
      | Fabric.Completed _ -> failwith "fabric: mid-run budget did not suspend"
    in
    let consumed = Psource.consumed mid in
    let roundtrip () =
      let s = positioned consumed in
      let t0 = now () in
      let o = Fabric.resume ~cycle_budget:1 ~dst ~snapshot:snap fp prog s in
      let dt = now () - t0 in
      match o with
      | Ok (Fabric.Suspended _) -> float_of_int dt
      | Ok (Fabric.Completed _) -> failwith "fabric: one-cycle resume completed"
      | Error (Sim.Corrupt m | Sim.Mismatch m) -> failwith ("fabric roundtrip: " ^ m)
    in
    let roundtrip_ns = median (List.init 15 (fun _ -> roundtrip ())) in
    [
      ("routing.compile_us", median_ns ~reps:21 (fun () -> Routing.compile (Routing.shortest_paths topo) topo) /. 1e3);
      ("traffic.ns_per_pkt", per_pkt gen_ns n);
      ("fabric.ns_per_hop", (leg ns -. per_pkt gen_ns n) *. pkts_per_hop);
      ("fabric.words_per_pkt", leg words -. per_pkt gen_words n);
      ("fabric.hops_per_pkt", Fabric.Hist.mean r.Fabric.fr_hops_hist);
      ("fabric.hop_p99_cycles", float_of_int (Fabric.Hist.percentile r.Fabric.fr_hop_hist 99.));
      ("snapshot.bytes", per_pkt (float_of_int !snap_bytes) !snaps);
      ("snapshot.roundtrip_us", roundtrip_ns /. 1e3);
      ("sim.cycles_per_pkt", per_pkt (float_of_int r.Fabric.fr_cycles) r.Fabric.fr_injected);
      ( "sim.max_queue",
        float_of_int (Array.fold_left max 0 r.Fabric.fr_node_max_queue) );
      ( "monitor.checks_per_kcycle",
        1000. *. float_of_int (Monitor.checks mon) /. float_of_int (max 1 r.Fabric.fr_cycles) );
    ]
  in
  {
    programs = [ (sensitivity, 16) ];
    setup =
      (fun () ->
        ignore (Switch.create_exn ~pad_to_stages:16 sensitivity);
        let topo = topology () in
        ignore (Routing.compile (Routing.shortest_paths topo) topo));
    loop_fast = false;
    round = 1;
    op;
    finish;
    layers;
  }
