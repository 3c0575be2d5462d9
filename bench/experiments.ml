(* Experiment harnesses regenerating every table and figure of the
   paper's evaluation (§4).  Each function returns the data series; the
   driver in main.ml prints them in the paper's layout.  EXPERIMENTS.md
   records paper-reported vs measured values. *)

module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Equiv = Mp5_core.Equiv
module Recirc = Mp5_core.Recirc
module Tracegen = Mp5_workload.Tracegen
module Psource = Mp5_workload.Packet_source
module Sources = Mp5_apps.Sources
module Traces = Mp5_apps.Traces
module Stats = Mp5_util.Stats
module Pool = Mp5_util.Pool

type scale = { n_packets : int; runs : int }

let smoke = { n_packets = 1_500; runs = 2 }
let quick = { n_packets = 10_000; runs = 3 }
let full = { n_packets = 60_000; runs = 10 }

(* --- domain-parallel execution ---

   Every sample below is an independent [Sim.run] with its own explicit
   seed, so samples can execute on any domain in any order: the pool's
   order-preserving maps make [--jobs N] output identical to [--jobs 1].
   Parallelism is applied at exactly one level per experiment (never
   nested): the per-run arrays, or the per-point sweeps whose inner
   [averaged] stays sequential. *)

let pool : Pool.t option ref = ref None

let set_jobs n =
  (match !pool with Some p -> Pool.shutdown p | None -> ());
  pool := (if n <= 1 then None else Some (Pool.create ~jobs:n))

let jobs () = match !pool with None -> 1 | Some p -> Pool.size p

(* Timing sections: park the worker domains (idle workers still join
   every stop-the-world minor-GC rendezvous) without retiring the pool;
   the next parallel map respawns them lazily.  See the policy note in
   lib/util/pool.mli. *)
let quiesce_pool () = match !pool with Some p -> Pool.quiesce p | None -> ()

(* Parallel [Array.init]. *)
let par_init n f =
  match !pool with None -> Array.init n f | Some p -> Pool.init p n f

(* Parallel [List.map]. *)
let par_map f xs =
  match !pool with None -> List.map f xs | Some p -> Pool.map_list p f xs

(* §4.3.1 defaults: 64-port switch, 4 pipelines, 4 stateful stages,
   512-entry registers, 64 B packets, remap every 100 cycles. *)
type setup = {
  k : int;
  stateful : int;
  reg_size : int;
  pkt_bytes : int;
  pattern : Tracegen.pattern;
}

let default_setup =
  { k = 4; stateful = 4; reg_size = 512; pkt_bytes = 64; pattern = Tracegen.Uniform }

(* The modelled machine is the paper's 64-port, 16-stage switch. *)
let switch_for setup =
  Switch.create_exn ~pad_to_stages:16
    (Sources.sensitivity_program ~stateful:setup.stateful ~reg_size:setup.reg_size)

let spec_for setup ~n ~seed =
  {
    Tracegen.n_packets = n;
    k = setup.k;
    pkt_bytes = setup.pkt_bytes;
    n_fields = max 2 (setup.stateful + 2);
    index_fields = List.init setup.stateful Fun.id;
    reg_size = setup.reg_size;
    pattern = setup.pattern;
    n_ports = 64;
    seed;
  }

let trace_for setup ~n ~seed = Tracegen.sensitivity (spec_for setup ~n ~seed)

(* Constant-memory twin of [trace_for]: the same generator, pulled one
   packet at a time, so an experiment's peak RSS no longer scales with
   its packet count.  Re-creating a source with the same spec replays
   the identical packet sequence. *)
let source_for setup ~n ~seed = Tracegen.sensitivity_source (spec_for setup ~n ~seed)

let sim_params ?(mode = Sim.Mp5) ?(shard_init = `Round_robin) ?(finite_fifos = false)
    ?remap_period ?remap_noise_gate setup =
  let params = { (Sim.default_params ~k:setup.k) with mode; shard_init } in
  let params =
    if finite_fifos then { params with Sim.fifo_capacity = 8; adaptive_fifos = false }
    else params
  in
  let params =
    match remap_period with None -> params | Some p -> { params with Sim.remap_period = p }
  in
  match remap_noise_gate with
  | None -> params
  | Some g -> { params with Sim.remap_noise_gate = g }

let throughput ?mode ?shard_init ?finite_fifos setup sw trace =
  let params = sim_params ?mode ?shard_init ?finite_fifos setup in
  (Sim.run params sw.Switch.prog trace).Sim.normalized_throughput

(* Streamed run of one generated workload; the cycle loop is the same as
   [Sim.run]'s, so the throughput matches the array path exactly. *)
let summary_source ?mode ?shard_init ?finite_fifos ?remap_period ?remap_noise_gate setup sw
    ~n ~seed =
  let params =
    sim_params ?mode ?shard_init ?finite_fifos ?remap_period ?remap_noise_gate setup
  in
  match
    Sim.run_source params sw.Switch.prog (source_for setup ~n ~seed)
  with
  | Sim.Completed s -> s
  | Sim.Suspended _ -> assert false (* no cycle budget *)

let throughput_source ?mode ?shard_init ?finite_fifos ?remap_period ?remap_noise_gate setup sw
    ~n ~seed =
  (summary_source ?mode ?shard_init ?finite_fifos ?remap_period ?remap_noise_gate setup sw ~n
     ~seed)
    .Sim.s_normalized_throughput

(* Average over [runs] independent workloads. *)
let averaged scale setup mode =
  let sw = switch_for setup in
  let samples =
    Array.init scale.runs (fun i ->
        throughput_source ~mode setup sw ~n:scale.n_packets ~seed:(100 + i))
  in
  Stats.mean samples

(* --- Figure 7: sensitivity analysis (MP5 vs ideal) --- *)

type series_point = { x : int; mp5 : float; ideal : float }

let sweep scale xs setup_of =
  (* Figure 7 points are averages; five 40k-packet runs are already well
     inside the seed-to-seed noise, and the heavy points (10 stateful
     stages, 4096 entries, 16 pipelines) make larger sweeps needlessly
     slow. *)
  let scale = { n_packets = min scale.n_packets 40_000; runs = min scale.runs 5 } in
  (* One parallel task per (point, mode): finer grain than whole points,
     so a heavy tail point (k=16, 4096 entries...) does not serialise the
     sweep. *)
  let tasks = List.concat_map (fun x -> [ (x, Sim.Mp5); (x, Sim.Ideal) ]) xs in
  let vals = par_map (fun (x, mode) -> averaged scale (setup_of x) mode) tasks in
  let rec combine xs vals =
    match (xs, vals) with
    | [], [] -> []
    | x :: xs, mp5 :: ideal :: vals -> { x; mp5; ideal } :: combine xs vals
    | _ -> assert false
  in
  combine xs vals

let fig7a scale =
  sweep scale [ 1; 2; 4; 8; 16 ] (fun k -> { default_setup with k })

let fig7b scale =
  sweep scale [ 0; 2; 4; 6; 8; 10 ] (fun stateful -> { default_setup with stateful })

let fig7c scale =
  (* Under a uniform pattern the curve is a step (1/k at one entry, near
     line rate at >= k entries, by symmetry); the paper's steady rise
     appears when accesses are skewed, because the hot subset's
     per-entry contention dilutes as the array grows — "when the number
     of register entries is small, there is also a very high contention
     per entry". *)
  sweep scale
    [ 1; 2; 4; 8; 16; 64; 256; 1024; 4096 ]
    (fun reg_size -> { default_setup with reg_size; pattern = Tracegen.Skewed })

let fig7d scale =
  sweep scale [ 64; 128; 256; 512; 1024; 1500 ] (fun pkt_bytes -> { default_setup with pkt_bytes })

(* --- §4.3.2 microbenchmarks --- *)

(* D2: dynamic vs static sharding, ten runs per pattern.  Both designs
   start from the same random placement.  Half of the skewed runs rotate
   the hot set over time (datacenter hot sets drift), which is where a
   static placement loses the most. *)
let d2 scale =
  let one patterns =
    let sw = switch_for default_setup in
    par_init scale.runs (fun i ->
        let pattern = List.nth patterns (i mod List.length patterns) in
        let setup = { default_setup with pattern } in
        let n = scale.n_packets and seed = 200 + i in
        (* The paper does not pin down the compile-time placement; range
           partitioning (blocks) is the natural hardware layout and the
           worst case for a contiguous hot set, per-cell random the
           mildest — alternating them reproduces the paper's spread. *)
        let shard_init = if i mod 2 = 0 then `Blocked else `Random (300 + i) in
        (* Hardware-faithful depth-8 FIFOs: with unbounded queues an
           overloaded cell always has packets in flight and the Figure 6
           guard can never move it (see EXPERIMENTS.md). *)
        let dynamic = throughput_source ~shard_init ~finite_fifos:true setup sw ~n ~seed in
        let static =
          throughput_source ~mode:Sim.Static_shard ~shard_init ~finite_fifos:true setup sw ~n
            ~seed
        in
        dynamic /. static)
  in
  ( one [ Tracegen.Skewed; Tracegen.Skewed_rotating (scale.n_packets / 8) ],
    one [ Tracegen.Uniform; Tracegen.Uniform_bursty (scale.n_packets / 16) ] )

(* Hardware FIFOs are finite; without D4 the reorder distance is bounded
   by queue depth, which keeps the violation fraction scale-independent
   (unbounded simulator queues would let it grow with trace length).
   Depth 16 rings land in the paper's band; MP5's zero violations hold
   for any depth. *)
let d4_params setup mode =
  { (Sim.default_params ~k:setup.k) with mode; fifo_capacity = 16; adaptive_fifos = false }

(* D4: fraction of packets violating C1, with D4 (always 0), without D4,
   and on the re-circulation baseline. *)
let d4 scale =
  let setup = default_setup in
  let sw = switch_for setup in
  let run_mode i mode =
    let trace = trace_for setup ~n:scale.n_packets ~seed:(400 + i) in
    let golden = Switch.golden sw trace in
    let violations r_access r_headers r_store r_exit =
      let rep =
        Equiv.compare ~golden ~n_packets:(Array.length trace) ~store:r_store
          ~headers_out:r_headers ~access_seqs:r_access ~exit_order:r_exit ()
      in
      rep.Equiv.c1_fraction
    in
    match mode with
    | `Sim m ->
        let r = Sim.run (d4_params setup m) sw.Switch.prog trace in
        violations r.Sim.access_seqs r.Sim.headers_out r.Sim.store r.Sim.exit_order
    | `Recirc ->
        let r = Recirc.run ~k:setup.k ~shard_seed:(500 + i) ~sharding:`Cell sw.Switch.prog trace in
        violations r.Recirc.access_seqs r.Recirc.headers_out r.Recirc.store r.Recirc.exit_order
  in
  let fractions mode = par_init scale.runs (fun i -> run_mode i mode) in
  (fractions (`Sim Sim.Mp5), fractions (`Sim Sim.No_d4), fractions `Recirc)

(* D3: throughput of re-circulation versus MP5 (and versus the naive
   single-pipeline design).  Runs alternate between a program where every
   packet touches all four arrays and one where each access is guarded
   (half the packets skip each array) — re-circulation's penalty depends
   directly on how many remote arrays a packet must chase. *)
let d3 scale =
  let setup = default_setup in
  let sw_all = switch_for setup in
  let sw_guarded =
    Switch.create_exn ~pad_to_stages:16
      (Sources.sensitivity_program_guarded ~stateful:setup.stateful ~reg_size:setup.reg_size)
  in
  par_init scale.runs (fun i ->
      let guarded = i mod 2 = 1 in
      let sw = if guarded then sw_guarded else sw_all in
      let n_fields = if guarded then (2 * setup.stateful) + 2 else setup.stateful + 2 in
      let trace =
        Tracegen.sensitivity
          {
            Tracegen.n_packets = scale.n_packets;
            k = setup.k;
            pkt_bytes = setup.pkt_bytes;
            n_fields;
            index_fields = List.init setup.stateful Fun.id;
            reg_size = setup.reg_size;
            pattern = setup.pattern;
            n_ports = 64;
            seed = 600 + i;
          }
      in
      let mp5 = throughput setup sw trace in
      let naive = throughput ~mode:Sim.Naive_single setup sw trace in
      let rc = Recirc.run ~k:setup.k ~shard_seed:(700 + i) sw.Switch.prog trace in
      (mp5, rc.Recirc.normalized_throughput, rc.Recirc.avg_recirculations, naive))

(* --- Figure 8: real applications --- *)

type app_point = {
  ap_k : int;
  ap_thr : float;
  ap_maxq : int;
  ap_equiv : bool;
  ap_p99_latency : float;  (** cycles in the switch, 99th percentile *)
}

let fig8_apps = [ "flowlet"; "conga"; "wfq"; "sequencer" ]

let fig8_one scale name =
  let sw = Switch.create_exn (List.assoc name Sources.all_named) in
  par_map
    (fun k ->
      let samples =
        Array.init (max 1 (scale.runs / 2)) (fun i ->
            let pkts =
              Tracegen.flows ~seed:(800 + i) ~n_packets:scale.n_packets ~k ~concurrency:128 ()
            in
            let trace = Traces.trace_for name pkts in
            let r, rep = Switch.verify ~k sw trace in
            let lats = Array.of_list (List.map (fun (_, l) -> float_of_int l) r.Sim.latencies) in
            ( r.Sim.normalized_throughput,
              r.Sim.max_queue,
              Equiv.equivalent rep,
              Stats.percentile lats 99.0 ))
      in
      {
        ap_k = k;
        ap_thr = Stats.mean (Array.map (fun (t, _, _, _) -> t) samples);
        ap_maxq = Array.fold_left (fun acc (_, q, _, _) -> max acc q) 0 samples;
        ap_equiv = Array.for_all (fun (_, _, e, _) -> e) samples;
        ap_p99_latency = Stats.mean (Array.map (fun (_, _, _, l) -> l) samples);
      })
    [ 1; 2; 4; 8 ]

let fig8 scale = List.map (fun name -> (name, fig8_one scale name)) fig8_apps

(* --- ablations --- *)

(* Invariant 2: prioritising stateless packets.  Needs a workload where
   some packets really are stateless: the guarded program lets ~half the
   packets skip each array.  The visible cost of disabling the priority
   is latency — stateless packets that should fly through in
   pipeline-depth cycles sit in queues instead. *)
let ablate_priority scale =
  let setup = { default_setup with reg_size = 32 } in
  let sw =
    Switch.create_exn ~pad_to_stages:16
      (Sources.sensitivity_program_guarded ~stateful:setup.stateful ~reg_size:setup.reg_size)
  in
  par_init scale.runs (fun i ->
      let trace =
        Tracegen.sensitivity
          {
            Tracegen.n_packets = scale.n_packets;
            k = setup.k;
            pkt_bytes = setup.pkt_bytes;
            n_fields = (2 * setup.stateful) + 2;
            index_fields = List.init setup.stateful Fun.id;
            reg_size = setup.reg_size;
            pattern = setup.pattern;
            n_ports = 64;
            seed = 900 + i;
          }
      in
      let stats params =
        let r = Sim.run params sw.Switch.prog trace in
        let lats = Array.of_list (List.map (fun (_, l) -> float_of_int l) r.Sim.latencies) in
        (r.Sim.normalized_throughput, Stats.percentile lats 50.0)
      in
      let on = stats (Sim.default_params ~k:setup.k) in
      let off =
        stats { (Sim.default_params ~k:setup.k) with Sim.stateless_priority = false }
      in
      (on, off))

(* The Figure 6 heuristic verbatim vs with the sampling-noise gate: on
   balanced (uniform, mid-sized) workloads the verbatim heuristic keeps
   moving cells whose past counters over-estimate their future load. *)
let ablate_gate scale =
  let setup = { default_setup with reg_size = 64 } in
  let sw = switch_for setup in
  par_init scale.runs (fun i ->
      let n = scale.n_packets and seed = 950 + i in
      let gated = throughput_source setup sw ~n ~seed in
      let verbatim = throughput_source ~remap_noise_gate:false setup sw ~n ~seed in
      (gated, verbatim))

(* Remap period sweep. *)
let ablate_period scale =
  let setup = { default_setup with pattern = Tracegen.Skewed } in
  let sw = switch_for setup in
  par_map
    (fun period ->
      let samples =
        Array.init scale.runs (fun i ->
            throughput_source ~remap_period:period ~shard_init:(`Random (1100 + i)) setup sw
              ~n:scale.n_packets ~seed:(1000 + i))
      in
      (period, Stats.mean samples))
    [ 0; 50; 100; 200; 400; 1600 ]

(* Finite FIFOs: drops against ring capacity (adaptive off). *)
let ablate_fifo scale =
  let setup = default_setup in
  let sw = switch_for setup in
  par_map
    (fun capacity ->
      let params =
        { (Sim.default_params ~k:setup.k) with fifo_capacity = capacity; adaptive_fifos = false }
      in
      let s =
        match
          Sim.run_source params sw.Switch.prog (source_for setup ~n:scale.n_packets ~seed:1200)
        with
        | Sim.Completed s -> s
        | Sim.Suspended _ -> assert false
      in
      (capacity, s.Sim.s_dropped, s.Sim.s_normalized_throughput))
    [ 2; 4; 8; 16; 32; 64 ]

(* --- degraded-mode operation (fault injection) --- *)

(* One pipeline of four goes down early and never comes back.  The
   dynamic modes evacuate its resident cells at the next remap boundary
   and settle at ~(k-1)/k of the healthy rate; a static placement keeps
   steering a quarter of the stateful packets at a dead pipeline for the
   rest of the run.  Each row is (healthy, mp5 degraded, static
   degraded) normalized throughput on the same trace and plan; the MP5
   run carries a fail-fast invariant monitor, so a conservation or
   affinity violation during the fault aborts the experiment rather
   than shipping a wrong number. *)
let degraded scale =
  let setup = default_setup in
  let sw = switch_for setup in
  par_init scale.runs (fun i ->
      let trace = trace_for setup ~n:scale.n_packets ~seed:(1300 + i) in
      let plan =
        let src = Printf.sprintf "seed %d; down @200 pipe=1" (1400 + i) in
        match Mp5_fault.Fault.parse src with
        | Ok p -> p
        | Error e -> failwith ("degraded: bad fault plan: " ^ e)
      in
      let run ?(mode = Sim.Mp5) ?fault ?monitor () =
        let params = Sim.default_params ~k:setup.k in
        (Sim.run ?fault ?monitor { params with mode } sw.Switch.prog trace)
          .Sim.normalized_throughput
      in
      let healthy = run () in
      let mp5 = run ~fault:plan ~monitor:(Mp5_fault.Monitor.create ()) () in
      let static = run ~mode:Sim.Static_shard ~fault:plan () in
      (healthy, mp5, static))

(* --- per-experiment telemetry probes (--metrics-dir) ---

   One instrumented representative run per experiment: the same switch,
   workload and parameters as one of the experiment's samples (its
   first, but for fig8's k = 4 and ablate-period's period 100), re-run once
   with a [Mp5_obs.Metrics.t] attached, so every BENCH_results.json entry
   can ship a telemetry snapshot explaining *why* its throughput came out
   as it did (stall attribution, drops by cause, remap activity).  A
   probe is one [Sim.run] — cheap next to the experiment itself — and
   runs sequentially after it, off the domain pool. *)

module Obs_metrics = Mp5_obs.Metrics

(* The workload behind a probe, separated from the instrument attached
   to it: the same representative run backs both the telemetry snapshot
   (--metrics-dir) and the phase-profile snapshot (--profile-dir). *)
type probe_target = {
  pt_sw : Switch.t;
  pt_trace : Mp5_banzai.Machine.input array;
  pt_k : int;
  pt_params : Sim.params;
  pt_fault : Mp5_fault.Fault.plan option;
}

let probe_target scale name =
  let target sw trace ~k =
    { pt_sw = sw; pt_trace = trace; pt_k = k; pt_params = Sim.default_params ~k; pt_fault = None }
  in
  let sensitivity ?mode ?shard_init ?finite_fifos setup ~seed =
    {
      (target (switch_for setup) (trace_for setup ~n:scale.n_packets ~seed) ~k:setup.k) with
      pt_params = sim_params ?mode ?shard_init ?finite_fifos setup;
    }
  in
  match name with
  | "d2" ->
      Some
        (sensitivity
           { default_setup with pattern = Tracegen.Skewed }
           ~shard_init:`Blocked ~finite_fifos:true ~seed:200)
  | "d3" -> Some (sensitivity default_setup ~seed:600)
  | "d4" ->
      Some
        { (sensitivity default_setup ~seed:400) with pt_params = d4_params default_setup Sim.No_d4 }
  | "fig7a" | "fig7b" | "fig7d" -> Some (sensitivity default_setup ~seed:100)
  | "fig7c" ->
      Some (sensitivity { default_setup with pattern = Tracegen.Skewed } ~seed:100)
  | "fig8" ->
      let app = "flowlet" in
      let sw = Switch.create_exn (List.assoc app Sources.all_named) in
      let pkts =
        Tracegen.flows ~seed:800 ~n_packets:scale.n_packets ~k:4 ~concurrency:128 ()
      in
      Some (target sw (Traces.trace_for app pkts) ~k:4)
  | "ablate-priority" ->
      (* The guarded program makes ~half the packets stateless at each
         array, so this probe is the one that exercises the
         stateless-priority claim counters. *)
      let setup = { default_setup with reg_size = 32 } in
      let sw =
        Switch.create_exn ~pad_to_stages:16
          (Sources.sensitivity_program_guarded ~stateful:setup.stateful
             ~reg_size:setup.reg_size)
      in
      let trace =
        Tracegen.sensitivity
          {
            Tracegen.n_packets = scale.n_packets;
            k = setup.k;
            pkt_bytes = setup.pkt_bytes;
            n_fields = (2 * setup.stateful) + 2;
            index_fields = List.init setup.stateful Fun.id;
            reg_size = setup.reg_size;
            pattern = setup.pattern;
            n_ports = 64;
            seed = 900;
          }
      in
      Some (target sw trace ~k:setup.k)
  | "ablate-gate" ->
      Some (sensitivity { default_setup with reg_size = 64 } ~seed:950)
  | "ablate-period" ->
      Some
        (sensitivity
           { default_setup with pattern = Tracegen.Skewed }
           ~shard_init:(`Random 1100) ~seed:1000)
  | "ablate-fifo" -> Some (sensitivity default_setup ~finite_fifos:true ~seed:1200)
  | "degraded" ->
      (* The one probe whose snapshot shows the fault counters: drops by
         Pipeline_down, evacuation moves, pipeline-down cycle totals. *)
      let setup = default_setup in
      let sw = switch_for setup in
      let trace = trace_for setup ~n:scale.n_packets ~seed:1300 in
      let plan =
        match Mp5_fault.Fault.parse "seed 1400; down @200 pipe=1" with
        | Ok p -> p
        | Error e -> failwith ("degraded probe: " ^ e)
      in
      Some { (target sw trace ~k:setup.k) with pt_fault = Some plan }
  | "sim-micro" ->
      let sw = Switch.create_exn Sources.heavy_hitter in
      let trace =
        Tracegen.sensitivity
          {
            Tracegen.n_packets = 2000;
            k = 4;
            pkt_bytes = 64;
            n_fields = 2;
            index_fields = [ 0 ];
            reg_size = 512;
            pattern = Tracegen.Uniform;
            n_ports = 64;
            seed = 3;
          }
      in
      Some (target sw trace ~k:4)
  | _ -> None (* table1, sram: no cycle simulator involved *)

(* Run a probe target once with the given instruments attached. *)
let probe_run ?metrics ?prof pt =
  ignore
    (Sim.run ?metrics ?prof ?fault:pt.pt_fault pt.pt_params pt.pt_sw.Switch.prog pt.pt_trace)

let metrics_probe scale name =
  Option.map
    (fun pt ->
      let stages =
        Array.length pt.pt_sw.Switch.prog.Mp5_core.Transform.config.Mp5_banzai.Config.stages
      in
      let m = Obs_metrics.create ~stages ~k:pt.pt_k in
      probe_run ~metrics:m pt;
      m)
    (probe_target scale name)

(* Phase-profile twin of [metrics_probe] (--profile-dir): the same
   representative run with a full-mode span profiler attached, so every
   BENCH_results.json entry can ship a wall-clock phase breakdown next
   to its telemetry snapshot. *)
let profile_probe scale name =
  Option.map
    (fun pt ->
      let pf = Mp5_obs.Prof.create ~mode:Mp5_obs.Prof.Full () in
      probe_run ~prof:pf pt;
      pf)
    (probe_target scale name)

(* --- closure-kernel micro-benchmark ---

   A heavy-hitter workload (2000 packets, k = 4) run back-to-back on the
   closure kernels: min-of-N wall clock, plus the minor words allocated
   per packet, a deterministic counter.  Two more counters of the oracle
   path ride along: the golden machine on a 2000-packet sequencer trace (one
   hot cell per group, the access pattern that made per-access
   bookkeeping quadratic) and the trace reader on that trace's text. *)

type micro = {
  mi_reps : int;
  mi_kernel_ns : float;  (** min wall-clock per [Sim.run] *)
  mi_calib_ns : float;
      (** min wall-clock of the host-calibration loop, timed alongside:
          [mi_kernel_ns / mi_calib_ns] is the host-independent figure *)
  mi_kernel_words : float;
      (** words allocated per packet by one [Sim.run], minor and direct
          major: a deterministic counter, unlike the wall clock *)
  mi_golden_words : float;  (** words allocated per packet by [Switch.golden] *)
  mi_trace_words : float;  (** words allocated per input byte by [Trace_io.of_string] *)
  mi_verify_words : float;
      (** words allocated per packet by one [Switch.verify] (golden
          machine, [Sim.run] and its collectors, [Equiv.compare]) *)
  mi_boundary_words : float;
      (** words allocated by one fabric checkpoint boundary: decode and
          re-encode of a fixed mid-drain snapshot *)
  mi_legs_words : float;
      (** words allocated per packet by an in-process drain of the same
          fabric in 500-cycle legs *)
  mi_drain_words : float;
      (** words allocated per packet by a straight drain of the same
          fabric, no checkpoints, less a one-packet drain's (building
          the fabric): the inter-switch packet path *)
  mi_switch_legs_words : float;
      (** words per packet of the heavy-hitter trace in 100-cycle legs *)
  mi_app_words : (string * float) list;
      (** per [lib/apps] program, words per packet of a straight drain
          of its 2000-packet flow trace, less a one-packet drain's: the
          cycle loop in steady state *)
  mi_tracegen_words : float;
      (** words per packet of a [Tracegen] source drained through its
          cursor alone, less a one-packet drain's *)
  mi_traffic_words : float;  (** the same for the fabric fixture's [Traffic] source *)
}

(* Words allocated by the second of two [f ()] calls: minor plus
   direct-major allocations (a large array skips the minor heap), so the
   count does not depend on when minor collections happen to promote.
   The minor part comes from [Gc.minor_words]: on OCaml 5.1 the minor
   count in [Gc.counters] misses part of the current minor heap. *)
let alloc_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  ignore (f ());
  let before = words () in
  ignore (f ());
  words () -. before

(* Words per packet of [f n] less [f 1], over the [n - 1] packets
   between: what each packet costs once building the run is paid. *)
let steady_words n f = (alloc_words (fun () -> f n) -. alloc_words (fun () -> f 1)) /. float_of_int (n - 1)

module Fb = Mp5_fabric.Fabric

(* The checkpointed fabric: a 2x2 leaf-spine running the §4.3 machine
   (four stateful stages of 512 cells, padded to 16 stages, k = 4), 2000
   packets of seeded all-to-all traffic. *)
let fabric_fixture () =
  let reg_size = 512 in
  let topo = Mp5_fabric.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  let sw =
    Switch.create_exn ~pad_to_stages:16 (Sources.sensitivity_program ~stateful:4 ~reg_size)
  in
  let prog = sw.Switch.prog in
  let n_fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
  let spec =
    {
      (Mp5_fabric.Traffic.default_spec topo) with
      Mp5_fabric.Traffic.n_packets = 2000;
      n_fields;
      index_fields = List.init n_fields Fun.id;
      reg_size;
      seed = 1;
    }
  in
  let fp =
    {
      Fb.fp_sim = Sim.default_params ~k:4;
      fp_topo = topo;
      fp_policy = Mp5_fabric.Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  (fp, prog, spec, Mp5_fabric.Traffic.dst_of_input spec)

(* One checkpoint boundary of a fabric drain: [Fabric.resume] with a
   zero cycle budget decodes the snapshot and encodes it again.  The
   snapshot is fixed: the fixture suspended half-way through its drain.
   Both calls resume the one string, so the second finds nothing parked
   (the first parked its own suspension) and counts the cross-process
   path: a fresh fabric built and decoded. *)
let fabric_boundary_words () =
  let fp, prog, spec, dst = fabric_fixture () in
  let cycles =
    match Fb.run ~dst fp prog (Mp5_fabric.Traffic.source spec) with
    | Fb.Completed r -> r.Fb.fr_cycles
    | Fb.Suspended _ -> assert false (* no cycle budget *)
  in
  (* A zero-budget resume reads nothing from a source positioned at the
     snapshot's cursor, so one source serves every call. *)
  let source = Mp5_fabric.Traffic.source spec in
  let snap =
    match Fb.run ~cycle_budget:(cycles / 2) ~dst fp prog source with
    | Fb.Suspended snap -> snap
    | Fb.Completed _ -> failwith "fabric-boundary: half the drain did not suspend"
  in
  alloc_words (fun () ->
      match Fb.resume ~cycle_budget:0 ~dst ~snapshot:snap fp prog source with
      | Ok (Fb.Suspended _) -> ()
      | Ok (Fb.Completed _) -> failwith "fabric-boundary: zero-budget resume completed"
      | Error (Sim.Corrupt m | Sim.Mismatch m) -> failwith ("fabric-boundary: " ^ m))

(* The fixture drained in-process in 500-cycle legs (run, resume,
   resume), each resume handed the string the previous leg returned:
   the path on which a resume decodes into the suspended fabric's
   machines.  Words per packet of the second of two drains. *)
let fabric_legs_words () =
  let fp, prog, spec, dst = fabric_fixture () in
  let budget = 500 in
  let drain () =
    let source = Mp5_fabric.Traffic.source spec in
    let rec go = function
      | Fb.Completed _ -> ()
      | Fb.Suspended snap -> (
          match Fb.resume ~cycle_budget:budget ~dst ~snapshot:snap fp prog source with
          | Ok o -> go o
          | Error (Sim.Corrupt m | Sim.Mismatch m) -> failwith ("fabric-legs: " ^ m))
    in
    go (Fb.run ~cycle_budget:budget ~dst fp prog source)
  in
  alloc_words drain /. float_of_int spec.Mp5_fabric.Traffic.n_packets

(* The fixture drained straight through, no cycle budget: host
   injection, links, routing and the switches' cycles, without a
   checkpoint boundary.  Building the fabric (routes, machines) costs as
   much as a one-packet drain of it, which is taken off, so the words
   per packet are the packet path's alone. *)
let fabric_drain_words () =
  let fp, prog, spec, dst = fabric_fixture () in
  steady_words spec.Mp5_fabric.Traffic.n_packets (fun n_packets ->
      Fb.run ~dst fp prog (Mp5_fabric.Traffic.source { spec with Mp5_fabric.Traffic.n_packets }))

(* A single switch drained in-process in 100-cycle legs, each
   [Sim.resume] handed the string the previous leg returned, so it
   decodes into the suspended machine.  A straight drain of the trace
   (the machine's build, the packets' cycles) is taken off: what is left
   per packet is the leg boundaries' encode, decode and positioning.
   Each count is the second of two drains. *)
let switch_legs_words prog params trace =
  let budget = 100 in
  let legs () =
    let source = Psource.of_array trace in
    let rec go = function
      | Sim.Completed _ -> ()
      | Sim.Suspended snap -> (
          match Sim.resume ~cycle_budget:budget ~snapshot:snap prog source with
          | Ok o -> go o
          | Error (Sim.Corrupt m | Sim.Mismatch m) -> failwith ("switch-legs: " ^ m))
    in
    go (Sim.run_source ~cycle_budget:budget params prog source)
  in
  let straight () = ignore (Sim.run_source params prog (Psource.of_array trace)) in
  (alloc_words legs -. alloc_words straight) /. float_of_int (Array.length trace)

(* Every app's cycle loop on its flow trace, with nothing attached. *)
let app_words () =
  let flows = Tracegen.flows ~seed:3 ~n_packets:2000 ~k:4 ~concurrency:128 () in
  let params = Sim.default_params ~k:4 in
  List.map
    (fun (name, src) ->
      let prog = (Switch.create_exn src).Switch.prog in
      let trace = Traces.trace_for name flows in
      ( name,
        steady_words (Array.length trace) (fun n ->
            Sim.run_source params prog (Psource.of_array (Array.sub trace 0 n))) ))
    Sources.all_named

(* A source drained through its cursor, nothing kept: the generator
   alone. *)
let drain_cursor s =
  while Psource.ready s do
    Psource.advance s
  done

let tracegen_words () =
  steady_words 4000 (fun n_packets ->
      drain_cursor
        (Tracegen.sensitivity_source
           {
             Tracegen.n_packets;
             k = 4;
             pkt_bytes = 64;
             n_fields = 6;
             index_fields = [ 0; 1; 2; 3 ];
             reg_size = 512;
             pattern = Tracegen.Skewed_rotating 500;
             n_ports = 64;
             seed = 3;
           }))

let traffic_words () =
  let _, _, spec, _ = fabric_fixture () in
  steady_words spec.Mp5_fabric.Traffic.n_packets (fun n_packets ->
      drain_cursor (Mp5_fabric.Traffic.source { spec with Mp5_fabric.Traffic.n_packets }))

(* Host-speed reference: a fixed loop shaped like the cycle loop —
   indirect calls through an array of closures, read-modify-writes on a
   cache-resident int array, a short-lived block every 16 iterations —
   that no change to the program touches.  Of the loops tried (random
   writes over an 8 MB table, a 1 MB table, an FNV hash chain, this
   one), this one's time tracked the kernels' best across slow and fast
   periods of a shared host: the kernels' min over 10 runs moved 1.8x
   while their ratio to this loop moved 1.1x. *)
let calib_fns = Array.init 64 (fun i x -> (x * (i + 3)) lxor (x lsr 7))

let calibrate () =
  let acc = ref 1 and cells = Array.make 4096 0 in
  for i = 1 to 400_000 do
    acc := (Array.unsafe_get calib_fns (i land 63)) !acc + i;
    let j = !acc land 4095 in
    Array.unsafe_set cells j (Array.unsafe_get cells j + 1);
    if i land 15 = 0 then ignore (Sys.opaque_identity (ref !acc))
  done;
  ignore (Sys.opaque_identity cells)

let sim_micro scale =
  let sw = Switch.create_exn Sources.heavy_hitter in
  let trace =
    Tracegen.sensitivity
      {
        Tracegen.n_packets = 2000;
        k = 4;
        pkt_bytes = 64;
        n_fields = 2;
        index_fields = [ 0 ];
        reg_size = 512;
        pattern = Tracegen.Uniform;
        n_ports = 64;
        seed = 3;
      }
  in
  let params = Sim.default_params ~k:4 in
  let run () = ignore (Sim.run params sw.Switch.prog trace : Sim.result) in
  (* Words per packet of the second of two runs: the counted run must
     not pay one-time setup.  Direct major allocations (the collectors'
     trace-sized vectors) count too. *)
  let kernel_words = alloc_words run /. float_of_int (Array.length trace) in
  let reps = max 10 scale.runs in
  (* The calibration loop runs next to each timed run, so a slow phase
     of the host slows both and cancels out of their ratio. *)
  let kernel_ns = ref infinity and calib_ns = ref infinity in
  let time_min r f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    f ();
    r := Float.min !r ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  for _ = 1 to reps do
    time_min calib_ns calibrate;
    time_min kernel_ns run
  done;
  let seq = Switch.create_exn Sources.sequencer in
  let seq_trace =
    Traces.trace_for "sequencer"
      (Tracegen.flows ~seed:3 ~n_packets:2000 ~k:4 ~concurrency:128 ())
  in
  let text = Mp5_workload.Trace_io.to_string seq_trace in
  let flowlet = Switch.create_exn Sources.flowlet in
  let flows = Tracegen.flows ~seed:3 ~n_packets:2000 ~k:4 ~concurrency:128 () in
  let flowlet_trace = Traces.trace_for "flowlet" flows in
  let flow_of = Traces.flow_of flows in
  {
    mi_reps = reps;
    mi_kernel_ns = !kernel_ns;
    mi_calib_ns = !calib_ns;
    mi_kernel_words = kernel_words;
    mi_golden_words =
      alloc_words (fun () -> Switch.golden seq seq_trace) /. float_of_int (Array.length seq_trace);
    mi_trace_words =
      alloc_words (fun () -> Mp5_workload.Trace_io.of_string text)
      /. float_of_int (String.length text);
    mi_verify_words =
      alloc_words (fun () -> Switch.verify ~k:4 ~flow_of flowlet flowlet_trace)
      /. float_of_int (Array.length flowlet_trace);
    mi_boundary_words = fabric_boundary_words ();
    mi_legs_words = fabric_legs_words ();
    mi_drain_words = fabric_drain_words ();
    mi_switch_legs_words = switch_legs_words sw.Switch.prog params trace;
    mi_app_words = app_words ();
    mi_tracegen_words = tracegen_words ();
    mi_traffic_words = traffic_words ();
  }

(* --- longrun: multi-megapacket streamed run with chunked resume ---

   The memory-scaling demonstration: one pull-based source drained
   across several checkpoint/resume chunks, so a 10M-packet run (at
   --full) holds one packet of trace and one machine of state at a time.
   Each chunk runs for a bounded number of cycles, suspends into an
   mp5-snap/1 snapshot, and the next chunk resumes in-process from that
   snapshot with the same (already positioned) source.  At the smaller
   scales the same workload is also run straight through and the two
   summaries compared — checkpoint/resume must be invisible in every
   counter and digest. *)

type longrun = {
  lo_packets : int;
  lo_chunks : int;
  lo_throughput : float;
  lo_exit_digest : int;
  lo_access_digest : int;
  lo_seconds : float;       (** wall-clock of the chunked run *)
  lo_top_heap_mb : float;   (** GC top-of-heap across the whole process *)
  lo_parity : bool option;  (** chunked = straight (checked below --full scale) *)
}

let longrun scale =
  (* 128 B packets, not the default 64: at 64 B the offered load is
     exactly 1.0 and the stage FIFOs random-walk upward for the whole
     run (max queue grows with the packet count), so the machine state
     itself is unbounded and no memory ceiling can hold.  At half load
     the queues are a few entries deep forever — the regime in which
     "memory bounded by machine state" is a meaningful claim. *)
  let setup = { default_setup with pkt_bytes = 128 } in
  let sw = switch_for setup in
  let n =
    if scale.n_packets >= full.n_packets then 10_000_000
    else if scale.n_packets >= quick.n_packets then 1_000_000
    else 100_000
  in
  let seed = 1500 in
  let params = Sim.default_params ~k:setup.k in
  (* Aim for a handful of chunks on the small scales, but cap the chunk
     length: each resume boundary collects the previous chunk's floating
     garbage, so a bounded chunk bounds the peak heap no matter how many
     packets the whole run drains. *)
  let chunk_cycles = max 10_000 (min 250_000 (n / (setup.k * 4))) in
  let source = source_for setup ~n ~seed in
  let t0 = Unix.gettimeofday () in
  let chunks = ref 1 in
  let rec go = function
    | Sim.Completed s -> s
    | Sim.Suspended snap -> (
        incr chunks;
        match
          Sim.resume ~cycle_budget:chunk_cycles ~snapshot:snap sw.Switch.prog source
        with
        | Ok o -> go o
        | Error (Sim.Corrupt m) -> failwith ("longrun: corrupt snapshot: " ^ m)
        | Error (Sim.Mismatch m) -> failwith ("longrun: snapshot mismatch: " ^ m))
  in
  let s = go (Sim.run_source ~cycle_budget:chunk_cycles params sw.Switch.prog source) in
  let seconds = Unix.gettimeofday () -. t0 in
  let top_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. (1024. *. 1024.)
  in
  let parity =
    if n >= 10_000_000 then None
    else
      let straight =
        match
          Sim.run_source params sw.Switch.prog (source_for setup ~n ~seed)
        with
        | Sim.Completed s -> s
        | Sim.Suspended _ -> assert false
      in
      Some (Sim.summary_equal s straight)
  in
  (match parity with
  | Some false -> failwith "longrun: chunked resume diverged from the uninterrupted run"
  | _ -> ());
  {
    lo_packets = s.Sim.s_packets;
    lo_chunks = !chunks;
    lo_throughput = s.Sim.s_normalized_throughput;
    lo_exit_digest = s.Sim.s_digests.Sim.dg_exits;
    lo_access_digest = s.Sim.s_digests.Sim.dg_access;
    lo_seconds = seconds;
    lo_top_heap_mb = top_heap_mb;
    lo_parity = parity;
  }

(* --- chaos: supervised crash-recovery soak ------------------------- *)

type chaos_result = {
  ch_campaigns : int;
  ch_crashes : int;  (** scheduled crash events across campaigns *)
  ch_torn : int;  (** of which torn-checkpoint crashes *)
  ch_wedges : int;  (** of which watchdog wedges *)
  ch_restarts : int;  (** supervisor restarts actually performed *)
  ch_failures : int;  (** campaigns that did not recover bit-identically *)
  ch_repro_dir : string;  (** where failing campaigns left repro artifacts *)
}

(* Randomized (program, fault plan, crash schedule) campaigns under the
   lib/robust supervisor: kill -9 at random cycles (including
   mid-checkpoint-write), watchdog wedges, restart-with-backoff from the
   snapshot rotation chain — every campaign must end bit-identical to
   its uninterrupted oracle.  Runs off the domain pool: the supervisor
   forks, and forking a process that carries worker domains is not
   safe. *)
let chaos ?dir scale =
  let campaigns =
    if scale.n_packets >= full.n_packets then 40
    else if scale.n_packets >= quick.n_packets then 20
    else 10
  in
  let dir =
    match dir with
    | Some d -> d
    | None -> Filename.concat (Filename.get_temp_dir_name ()) "mp5-bench-chaos"
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let r = Mp5_robust.Chaos.soak ~dir ~seed:1 ~campaigns () in
  {
    ch_campaigns = r.Mp5_robust.Chaos.rp_campaigns;
    ch_crashes = r.Mp5_robust.Chaos.rp_crashes;
    ch_torn = r.Mp5_robust.Chaos.rp_torn;
    ch_wedges = r.Mp5_robust.Chaos.rp_wedges;
    ch_restarts = r.Mp5_robust.Chaos.rp_restarts;
    ch_failures = List.length r.Mp5_robust.Chaos.rp_failures;
    ch_repro_dir = dir;
  }

(* --- fabric: multi-switch leaf-spine run with conservation check --- *)

type fabric_bench = {
  fb_switches : int;
  fb_hosts : int;
  fb_injected : int;
  fb_delivered : int;
  fb_dropped : int;        (** node + forwarding-miss + link drops *)
  fb_cycles : int;
  fb_throughput : float;   (** delivered packets per fabric cycle *)
  fb_hop_p50 : int;        (** per-hop pipeline latency percentiles *)
  fb_hop_p99 : int;
  fb_e2e_p50 : int;        (** injection-to-delivery latency percentiles *)
  fb_e2e_p99 : int;
  fb_hops_mean : float;
  fb_seconds : float;      (** wall-clock of the measured run *)
}

(* A 2x2 leaf-spine (4 switches, 4 hosts) driven by seeded all-to-all
   host traffic, with the fabric conservation monitor attached. *)
let fabric scale =
  let module Fb = Mp5_fabric.Fabric in
  let topo =
    Mp5_fabric.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1
  in
  let sw = switch_for default_setup in
  let n_fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
  let spec =
    {
      (Mp5_fabric.Traffic.default_spec topo) with
      Mp5_fabric.Traffic.n_packets = scale.n_packets;
      n_fields;
      index_fields = List.init n_fields Fun.id;
      reg_size = default_setup.reg_size;
      seed = 42;
    }
  in
  let fparams =
    {
      Fb.fp_sim = Sim.default_params ~k:default_setup.k;
      fp_topo = topo;
      fp_policy = Mp5_fabric.Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  let mon = Mp5_fault.Monitor.create ~epoch:64 () in
  let t0 = Unix.gettimeofday () in
  let r =
    match
      Fb.run ~monitor:mon ~dst:(Mp5_fabric.Traffic.dst_of_input spec) fparams sw.Switch.prog
        (Mp5_fabric.Traffic.source spec)
    with
    | Fb.Completed r -> r
    | Fb.Suspended _ -> assert false (* no cycle budget attached *)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  if not (Mp5_fault.Monitor.ok mon) then
    failwith "fabric: conservation violation during bench run";
  {
    fb_switches = r.Fb.fr_switches;
    fb_hosts = r.Fb.fr_hosts;
    fb_injected = r.Fb.fr_injected;
    fb_delivered = r.Fb.fr_delivered;
    fb_dropped = r.Fb.fr_node_dropped + r.Fb.fr_miss_dropped + r.Fb.fr_link_dropped;
    fb_cycles = r.Fb.fr_cycles;
    fb_throughput = Fb.throughput r;
    fb_hop_p50 = Fb.Hist.percentile r.Fb.fr_hop_hist 50.;
    fb_hop_p99 = Fb.Hist.percentile r.Fb.fr_hop_hist 99.;
    fb_e2e_p50 = Fb.Hist.percentile r.Fb.fr_e2e_hist 50.;
    fb_e2e_p99 = Fb.Hist.percentile r.Fb.fr_e2e_hist 99.;
    fb_hops_mean = Fb.Hist.mean r.Fb.fr_hops_hist;
    fb_seconds = seconds;
  }

(* --- forge: every snapshot field forged ---

   Per progen seed and suspension cycle, a switch run and a 2x2
   leaf-spine run of the seed's program are suspended.  The decode's
   field walk ({!Mp5_util.Codec.walk}) lists every field of each
   snapshot with its rule, and each field is forged in turn to each of
   [forge_values], resealed and resumed for [forge_budget] cycles.  A
   case must end in [Ok], a [Corrupt] naming a byte offset, or a
   [Mismatch]; an exception or an unpositioned error is a failure.
   Each case copies, reseals and decodes the whole snapshot, so the
   walk is quadratic in the snapshot's size, and a switch resume runs a
   full major collection first ({!Sim.resume}): the experiment counts
   each snapshot's fields by rule rather than keeping them, so the heap
   that collection scans stays small. *)

module Codec = Mp5_util.Codec

type forge_result = {
  fo_snapshots : int;
  fo_fields : int;
  fo_rules : (Codec.rule * int) list;  (** fields per stated rule *)
  fo_cases : int;
  fo_decoded : int;                    (** cases that resumed *)
  fo_failures : string list;
  fo_seconds : float;
}

let forge_values = [ -1; 0; 7; 1 lsl 16; 1 lsl 40; max_int ]
let forge_budget = 50

(* Words a case may allocate per snapshot byte: a fresh machine and
   [forge_budget] cycles of its run take about 2 (16 bytes a byte); a
   forged value that sizes memory takes far more. *)
let forge_words = 8
let forge_cycles = [ 3; 8; 12 ]
let forge_rules = [ Codec.Any; Range; Count; Xref; Frame ]

(* A message naming a byte offset ("byte N: ..."), wherever it starts. *)
let positioned msg =
  let n = String.length msg in
  let digit i = i < n && msg.[i] >= '0' && msg.[i] <= '9' in
  let rec at i = i + 5 < n && ((String.sub msg i 5 = "byte " && digit (i + 5)) || at (i + 1)) in
  at 0

(* One seed's snapshots: a switch run and a fabric run of its program,
   each suspended at every cycle of [forge_cycles]. *)
let forge_seed seed =
  let module Fb = Mp5_fabric.Fabric in
  let snapshots = ref 0 and cases = ref 0 and decoded = ref 0 in
  let per_rule = Array.make (List.length forge_rules) 0 and failures = ref [] in
  let walk what resume snap =
    incr snapshots;
    let fields =
      snd (Codec.walk (fun () -> resume ~cycle_budget:0 (Bytes.to_string (Bytes.of_string snap))))
    in
    List.iter
      (fun (f : Codec.field) ->
        List.iteri (fun i r -> if r = f.Codec.rule then per_rule.(i) <- per_rule.(i) + 1) forge_rules)
      fields;
    List.iter
      (fun (f : Codec.field) ->
        List.iter
          (fun v ->
            incr cases;
            let forged = Codec.forge snap fields f v in
            let fail msg =
              failures :=
                Printf.sprintf "%s: %s at byte %d = %d: %s" what f.Codec.what f.Codec.pos v msg
                :: !failures
            in
            let _, promoted, major = Gc.counters () in
            let before = Gc.minor_words () +. major -. promoted in
            (match resume ~cycle_budget:forge_budget forged with
            | Ok _ -> incr decoded
            | Error (Sim.Mismatch _) -> ()
            | Error (Sim.Corrupt msg) -> if not (positioned msg) then fail ("unpositioned: " ^ msg)
            | exception e -> fail (Printexc.to_string e));
            let _, promoted, major = Gc.counters () in
            let words = Gc.minor_words () +. major -. promoted -. before in
            if words > float_of_int (forge_words * String.length snap) then
              fail (Printf.sprintf "allocated %.0f words" words))
          forge_values)
      fields
  in
  let limits = Mp5_fuzz.Progen.limits in
  let prog =
    match Mp5_domino.Compile.compile ~limits (Mp5_fuzz.Progen.generate seed) with
    | Ok t -> Mp5_core.Transform.transform ~limits t.Mp5_domino.Compile.config
    | Error _ -> failwith (Printf.sprintf "forge: progen seed %d does not compile" seed)
  in
  let k = 2 + (seed mod 3) in
  let trace = Mp5_fuzz.Progen.trace ~seed ~k ~n:200 in
  let topo = Mp5_fabric.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:1 ~delay:2 in
  let rng = Mp5_util.Rng.create seed in
  let hosts =
    Array.init 60 (fun i ->
        {
          Mp5_banzai.Machine.time = i;
          port = Mp5_util.Rng.int rng 2;
          headers = Array.init 4 (fun _ -> Mp5_util.Rng.int rng 16 - 2);
        })
  in
  let dst (i : Mp5_banzai.Machine.input) = 1 - (i.Mp5_banzai.Machine.port mod 2) in
  let fp =
    {
      Fb.fp_sim = Sim.default_params ~k:2;
      fp_topo = topo;
      fp_policy = Mp5_fabric.Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  List.iter
    (fun cycles ->
      let params = Sim.default_params ~k in
      (match Sim.run_source ~cycle_budget:cycles params prog (Psource.of_array trace) with
      | Sim.Suspended snap ->
          walk (Printf.sprintf "seed %d switch @%d" seed cycles)
            (fun ~cycle_budget snapshot ->
              Sim.resume ~cycle_budget ~snapshot prog (Psource.of_array trace))
            snap
      | Sim.Completed _ -> ());
      match Fb.run ~cycle_budget:cycles ~dst fp prog (Psource.of_array hosts) with
      | Fb.Suspended snap ->
          walk (Printf.sprintf "seed %d fabric @%d" seed cycles)
            (fun ~cycle_budget snapshot ->
              Fb.resume ~cycle_budget ~dst ~snapshot fp prog (Psource.of_array hosts))
            snap
      | Fb.Completed _ -> ())
    forge_cycles;
  (!snapshots, per_rule, !cases, !decoded, List.rev !failures)

let forge () =
  let t0 = Unix.gettimeofday () in
  let per_seed = par_map forge_seed (List.init 20 Fun.id) in
  let sum f = List.fold_left (fun n s -> n + f s) 0 per_seed in
  let per_rule i = sum (fun (_, r, _, _, _) -> r.(i)) in
  let rules = List.mapi (fun i r -> (r, per_rule i)) forge_rules in
  {
    fo_snapshots = sum (fun (n, _, _, _, _) -> n);
    fo_fields = List.fold_left (fun n (_, c) -> n + c) 0 rules;
    fo_rules = rules;
    fo_cases = sum (fun (_, _, n, _, _) -> n);
    fo_decoded = sum (fun (_, _, _, n, _) -> n);
    fo_failures = List.concat_map (fun (_, _, _, _, f) -> f) per_seed;
    fo_seconds = Unix.gettimeofday () -. t0;
  }
