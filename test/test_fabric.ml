(* Fabric-grade test battery for lib/fabric.

   The anchor is the degenerate differential: a one-switch fabric with
   zero-delay host links is the plain simulator wearing a topology — on
   a slice of the 220-program corpus its exit and access digests must
   equal [Sim.run_source]'s exactly, packet for packet.  The fabric
   driver may add routing, links and
   lock-step stepping, but it may not change a single observable bit of
   the machine it wraps.

   On top of that, a 100-seed property quantifies over random topologies
   (2-8 switches, random trunk delays, random host placement):
   fabric-wide packet conservation holds at every monitor epoch, and a
   run suspended mid-way and resumed is bit-identical to the straight
   run — including under a seeded link-down fault plan.  Topology
   validation, forwarding-miss accounting and the zero-delay corner get
   direct unit tests. *)

module Sim = Mp5_core.Sim
module Machine = Mp5_banzai.Machine
module Psource = Mp5_workload.Packet_source
module Rng = Mp5_util.Rng
module Monitor = Mp5_fault.Monitor
module Linkplan = Mp5_fault.Linkplan
module Topology = Mp5_fabric.Topology
module Routing = Mp5_fabric.Routing
module Fabric = Mp5_fabric.Fabric
module Progen = Mp5_fuzz.Progen
open Mp5_domino

let limits = Progen.limits

let prog_for seed =
  let src = Progen.generate seed in
  match Compile.compile ~limits src with
  | Ok t -> (src, Mp5_core.Transform.transform ~limits t.Compile.config)
  | Error e ->
      Alcotest.failf "seed %d: generated program failed to compile:\n%s\n%a" seed src
        Compile.pp_error e

let params_for topo ~k plan =
  {
    Fabric.fp_sim = Sim.default_params ~k;
    fp_topo = topo;
    fp_policy = Routing.shortest_paths topo;
    fp_plan = plan;
  }

let completed seed = function
  | Fabric.Completed r -> r
  | Fabric.Suspended _ -> Alcotest.failf "seed %d: fabric run suspended without a budget" seed

(* ------------------------------------------------------------------ *)
(* Degenerate differential: 1-switch fabric = plain streamed run.      *)
(* ------------------------------------------------------------------ *)

(* Progen traces use ports 0..k-1, so a one-switch topology with k hosts
   maps port -> host identically and zero-delay uplinks admit each cycle's
   packets in (time, port) trace order — exactly the plain run's
   admission order.  All packets route to host 0, whose single
   zero-delay downlink delivers in exit order, so the fabric's exit
   digest folds the same (seq, latency, headers) triples in the same
   order as the machine's streaming digest. *)
let run_degenerate seed =
  let src, prog = prog_for seed in
  let k = 2 + (seed mod 3) in
  let n_packets = 100 in
  let trace = Progen.trace ~seed ~k ~n:n_packets in
  let params = Sim.default_params ~k in
  let plain =
    match Sim.run_source params prog (Psource.of_array trace) with
    | Sim.Completed s -> s
    | Sim.Suspended _ -> Alcotest.failf "seed %d: plain run suspended without a budget" seed
  in
  let topo = Topology.line ~switches:1 ~hosts_per_sw:k ~delay:0 in
  let fp = params_for topo ~k Linkplan.empty in
  let mon = Monitor.create ~epoch:16 () in
  let r =
    completed seed
      (Fabric.run ~monitor:mon ~dst:(fun _ -> 0) fp prog (Psource.of_array trace))
  in
  if not (Monitor.ok mon) then
    Alcotest.failf "seed %d: conservation violated on the degenerate fabric:\n%s\n%s" seed src
      (Monitor.summary mon);
  if Monitor.checks mon = 0 then
    Alcotest.failf "seed %d: degenerate fabric ran with zero conservation checks" seed;
  if r.Fabric.fr_exit_digest <> plain.Sim.s_digests.Sim.dg_exits then
    Alcotest.failf "seed %d: fabric exit digest %016x <> plain %016x on:\n%s" seed
      r.Fabric.fr_exit_digest plain.Sim.s_digests.Sim.dg_exits src;
  if r.Fabric.fr_access_digest <> plain.Sim.s_digests.Sim.dg_access then
    Alcotest.failf "seed %d: fabric access digest %016x <> plain %016x on:\n%s" seed
      r.Fabric.fr_access_digest plain.Sim.s_digests.Sim.dg_access src;
  if r.Fabric.fr_node_dropped <> plain.Sim.s_dropped then
    Alcotest.failf "seed %d: fabric node drops %d <> plain %d on:\n%s" seed
      r.Fabric.fr_node_dropped plain.Sim.s_dropped src;
  if r.Fabric.fr_injected <> n_packets then
    Alcotest.failf "seed %d: fabric injected %d of %d packets" seed r.Fabric.fr_injected
      n_packets;
  if r.Fabric.fr_delivered + r.Fabric.fr_node_dropped <> n_packets then
    Alcotest.failf "seed %d: degenerate fabric lost packets: delivered %d + dropped %d <> %d"
      seed r.Fabric.fr_delivered r.Fabric.fr_node_dropped n_packets

let test_degenerate () =
  (* Every 10th corpus seed: 22 programs across k in {2,3,4}. *)
  let seeds = List.init 22 (fun i -> i * 10) in
  List.iter run_degenerate seeds;
  Alcotest.(check int) "slice size" 22 (List.length seeds)

(* ------------------------------------------------------------------ *)
(* 100-seed property: conservation + resume identity.                 *)
(* ------------------------------------------------------------------ *)

(* Random connected topology: a random spanning tree over 2-8 switches
   plus a few extra trunks, random per-trunk delays 0-2, and hosts
   attached to random switches. *)
let gen_topology rng =
  let n_sw = 2 + Rng.int rng 7 in
  let seen = Hashtbl.create 16 in
  let trunk a b =
    let key = (min a b, max a b) in
    if a = b || Hashtbl.mem seen key then None
    else begin
      Hashtbl.add seen key ();
      Some (Topology.edge ~delay:(Rng.int rng 3) (Switch a) (Switch b))
    end
  in
  let tree =
    List.filter_map
      (fun s -> trunk (Rng.int rng s) s)
      (List.init (n_sw - 1) (fun i -> i + 1))
  in
  let extra =
    List.filter_map
      (fun _ -> trunk (Rng.int rng n_sw) (Rng.int rng n_sw))
      (List.init (Rng.int rng n_sw) Fun.id)
  in
  let n_hosts = n_sw + Rng.int rng (n_sw + 1) in
  let hosts =
    List.init n_hosts (fun h ->
        Topology.edge ~delay:(Rng.int rng 2) (Host h) (Switch (Rng.int rng n_sw)))
  in
  match Topology.make ~n_switches:n_sw ~n_hosts (tree @ extra @ hosts) with
  | Ok t -> t
  | Error e -> QCheck.Test.fail_reportf "generated topology invalid: %s" e

let gen_trace rng ~n_hosts ~n =
  let per = 1 + Rng.int rng 3 in
  Array.init n (fun i ->
      {
        Machine.time = i / per;
        port = Rng.int rng n_hosts;
        headers = Array.init 4 (fun _ -> Rng.int rng 16 - 2);
      })

let prop_fabric_conservation =
  QCheck.Test.make ~name:"conservation + engine identity (random fabrics)" ~count:100
    QCheck.(small_nat)
    (fun seed ->
      let src, prog = prog_for (seed mod 220) in
      let rng = Rng.create ((seed * 131) + 7) in
      let topo = gen_topology rng in
      let n_hosts = Topology.n_hosts topo in
      let trace = gen_trace rng ~n_hosts ~n:60 in
      let dst (input : Machine.input) =
        (input.Machine.port + abs input.Machine.headers.(0)) mod n_hosts
      in
      let plan =
        if seed mod 3 = 0 then begin
          let link = Rng.int rng (Topology.n_links topo) in
          let text = Printf.sprintf "link-down @5..40 link=%d" link in
          match Linkplan.parse text with
          | Ok p -> p
          | Error e -> QCheck.Test.fail_reportf "bad link plan %S: %s" text e
        end
        else Linkplan.empty
      in
      let fp = params_for topo ~k:2 plan in
      (* A run, straight or suspended at [cycle_budget] and resumed
         through its snapshot under the same monitor. *)
      let one ?cycle_budget () =
        let mon = Monitor.create ~epoch:16 () in
        let r =
          try
            match
              Fabric.run ~monitor:mon ?cycle_budget ~dst fp prog (Psource.of_array trace)
            with
            | Fabric.Completed r -> r
            | Fabric.Suspended snap -> (
                match
                  Fabric.resume ~monitor:mon ~dst ~snapshot:snap fp prog
                    (Psource.of_array trace)
                with
                | Ok o -> completed seed o
                | Error _ -> QCheck.Test.fail_reportf "seed %d: fabric snapshot rejected" seed)
          with Monitor.Violation diag ->
            QCheck.Test.fail_reportf "seed %d: conservation violated:\n%s\n%s" seed diag src
        in
        if not (Monitor.ok mon) then
          QCheck.Test.fail_reportf "seed %d: monitor not ok:\n%s" seed (Monitor.summary mon);
        if Monitor.checks mon = 0 then
          QCheck.Test.fail_reportf "seed %d: run finished with zero conservation checks" seed;
        r
      in
      let base = one () in
      (* Every packet is accounted for at the end, too. *)
      if
        base.Fabric.fr_delivered + base.Fabric.fr_node_dropped + base.Fabric.fr_miss_dropped
        + base.Fabric.fr_link_dropped
        <> base.Fabric.fr_injected
      then
        QCheck.Test.fail_reportf "seed %d: final accounting leaks: %d+%d+%d+%d <> %d" seed
          base.Fabric.fr_delivered base.Fabric.fr_node_dropped base.Fabric.fr_miss_dropped
          base.Fabric.fr_link_dropped base.Fabric.fr_injected;
      (* Suspended half-way and resumed, the run must agree with [base]
         on every counter, digest, per-node max queue and histogram. *)
      let resumed = one ~cycle_budget:(max 1 (base.Fabric.fr_cycles / 2)) () in
      if not (Fabric.results_equal base resumed) then
        QCheck.Test.fail_reportf "seed %d: resumed fabric diverges from the straight run on:\n%s"
          seed src;
      true)

(* ------------------------------------------------------------------ *)
(* Topology validation and edge cases.                                 *)
(* ------------------------------------------------------------------ *)

let check_invalid name expect = function
  | Ok _ -> Alcotest.failf "%s: invalid topology accepted" name
  | Error msg ->
      let has sub =
        let ls = String.length sub and lm = String.length msg in
        let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
        go 0
      in
      if not (has expect) then
        Alcotest.failf "%s: error %S does not mention %S" name msg expect

let test_validation () =
  check_invalid "self-loop" "self-loop"
    (Topology.make ~n_switches:1 ~n_hosts:1
       [ Topology.edge (Switch 0) (Switch 0); Topology.edge (Host 0) (Switch 0) ]);
  check_invalid "unreachable" "unreachable"
    (Topology.make ~n_switches:2 ~n_hosts:2
       [ Topology.edge (Host 0) (Switch 0); Topology.edge (Host 1) (Switch 1) ]);
  check_invalid "host-host" "hosts connect to switches"
    (Topology.make ~n_switches:1 ~n_hosts:2
       [
         Topology.edge (Host 0) (Host 1);
         Topology.edge (Host 0) (Switch 0);
         Topology.edge (Host 1) (Switch 0);
       ]);
  check_invalid "homeless host" "exactly one"
    (Topology.make ~n_switches:2 ~n_hosts:1
       [
         Topology.edge (Switch 0) (Switch 1);
         Topology.edge (Host 0) (Switch 0);
         Topology.edge (Host 0) (Switch 1);
       ]);
  check_invalid "bad spec shape" "unknown shape" (Topology.of_spec "blob:3");
  check_invalid "bad spec option" "unknown option" (Topology.of_spec "line:2,depth=3");
  (* Stock shapes and the spec parser agree. *)
  (match Topology.of_spec "leafspine:2x2,hosts=2,delay=1" with
  | Ok t ->
      Alcotest.(check int) "leafspine switches" 4 (Topology.n_switches t);
      Alcotest.(check int) "leafspine hosts" 4 (Topology.n_hosts t);
      Alcotest.(check int) "leafspine digest"
        (Topology.digest (Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1))
        (Topology.digest t)
  | Error e -> Alcotest.failf "leafspine spec rejected: %s" e);
  match Topology.of_spec "fattree:4" with
  | Ok t ->
      Alcotest.(check int) "fattree switches" 20 (Topology.n_switches t);
      Alcotest.(check int) "fattree hosts" 16 (Topology.n_hosts t)
  | Error e -> Alcotest.failf "fattree spec rejected: %s" e

(* A zero-delay multi-switch line still conserves and terminates. *)
let test_zero_delay () =
  let _, prog = prog_for 3 in
  let topo = Topology.line ~switches:3 ~hosts_per_sw:1 ~delay:0 in
  let trace = gen_trace (Rng.create 99) ~n_hosts:3 ~n:80 in
  let mon = Monitor.create ~epoch:8 () in
  let r =
    completed 3
      (Fabric.run ~monitor:mon ~dst:(fun i -> i.Machine.port mod 3)
         (params_for topo ~k:2 Linkplan.empty)
         prog (Psource.of_array trace))
  in
  Alcotest.(check bool) "monitor ok" true (Monitor.ok mon);
  Alcotest.(check int) "all injected" 80 r.Fabric.fr_injected;
  Alcotest.(check int) "all accounted" 80
    (r.Fabric.fr_delivered + r.Fabric.fr_node_dropped + r.Fabric.fr_miss_dropped
   + r.Fabric.fr_link_dropped)

(* A forwarding-table miss is a counted drop, never a crash: an empty
   policy routes nothing, a dst outside the host space routes nothing. *)
let test_forwarding_miss () =
  let _, prog = prog_for 5 in
  let topo = Topology.line ~switches:2 ~hosts_per_sw:1 ~delay:1 in
  let trace = gen_trace (Rng.create 7) ~n_hosts:2 ~n:40 in
  let empty_policy =
    { Routing.bits = Routing.bits_for 2; rules = Array.make 2 [] }
  in
  let fp =
    {
      Fabric.fp_sim = Sim.default_params ~k:2;
      fp_topo = topo;
      fp_policy = empty_policy;
      fp_plan = Linkplan.empty;
    }
  in
  let mon = Monitor.create ~epoch:8 () in
  let r =
    completed 5
      (Fabric.run ~monitor:mon ~dst:(fun i -> i.Machine.port mod 2) fp prog
         (Psource.of_array trace))
  in
  Alcotest.(check bool) "monitor ok" true (Monitor.ok mon);
  Alcotest.(check int) "nothing delivered" 0 r.Fabric.fr_delivered;
  Alcotest.(check int) "all misses counted" 40
    (r.Fabric.fr_miss_dropped + r.Fabric.fr_node_dropped);
  (* dst outside the host space: the ingress miss path. *)
  let mon2 = Monitor.create ~epoch:8 () in
  let r2 =
    completed 5
      (Fabric.run ~monitor:mon2 ~dst:(fun _ -> 99)
         (params_for topo ~k:2 Linkplan.empty)
         prog (Psource.of_array trace))
  in
  Alcotest.(check bool) "monitor ok (bad dst)" true (Monitor.ok mon2);
  Alcotest.(check int) "every packet an ingress miss" 40 r2.Fabric.fr_miss_dropped

(* Link-down windows drop counted packets; link-delay only reorders
   nothing (per-link FIFO): both keep conservation and determinism. *)
let test_link_faults () =
  let _, prog = prog_for 11 in
  let topo = Topology.line ~switches:2 ~hosts_per_sw:1 ~delay:1 in
  let trace = gen_trace (Rng.create 41) ~n_hosts:2 ~n:60 in
  (* Down the s0->s1 trunk (link 0) for a window covering most of the
     run: cross traffic must drop, local traffic still delivers. *)
  let plan =
    match Linkplan.parse "link-down @0..1000 link=0; link-delay @0..1000 link=1 extra=5" with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let mon = Monitor.create ~epoch:8 () in
  let r =
    completed 11
      (Fabric.run ~monitor:mon ~dst:(fun i -> 1 - (i.Machine.port mod 2))
         (params_for topo ~k:2 plan)
         prog (Psource.of_array trace))
  in
  Alcotest.(check bool) "monitor ok" true (Monitor.ok mon);
  if r.Fabric.fr_link_dropped = 0 then
    Alcotest.fail "link-down window dropped nothing (cross traffic should hit link 0)";
  Alcotest.(check int) "all accounted" 60
    (r.Fabric.fr_delivered + r.Fabric.fr_node_dropped + r.Fabric.fr_miss_dropped
   + r.Fabric.fr_link_dropped)

(* ------------------------------------------------------------------ *)
(* Resuming into the suspended fabric's machines.                      *)
(* ------------------------------------------------------------------ *)

(* A resume handed the very string a suspension returned decodes into
   that fabric's machines; a copy of the string decodes into new ones.
   Both must write the same snapshot at every later suspension and end
   on the same result as the straight run.  The corpus crosses a slice
   of generated programs and the §4.3 program on a hot 4-cell register
   file with four machine configurations: MP5 defaults, Ideal (per-cell
   queues), tight non-adaptive FIFOs (full-FIFO drops, which cancel the
   dropped packets' parked phantoms) and the starvation and ECN
   guards; each is suspended every 1, 7, 50 and 500 cycles. *)

let copy s = Bytes.to_string (Bytes.of_string s)

(* Drain in legs of [budget] cycles against one positioned source; each
   resume gets the previous leg's string itself or, with [~fresh], a
   copy.  Returns every suspension's snapshot and the final result. *)
let drain_legs ~fresh ~budget ~dst fp prog trace =
  let source = Psource.of_array trace in
  let rec go n snaps = function
    | Fabric.Completed r -> (List.rev snaps, r)
    | Fabric.Suspended snap -> (
        if n > 5000 then Alcotest.fail "fabric leg chain does not terminate";
        let handed = if fresh then copy snap else snap in
        match Fabric.resume ~cycle_budget:budget ~dst ~snapshot:handed fp prog source with
        | Ok o -> go (n + 1) (snap :: snaps) o
        | Error (Sim.Corrupt m | Sim.Mismatch m) -> Alcotest.failf "leg %d rejected: %s" n m)
  in
  go 0 [] (Fabric.run ~cycle_budget:budget ~dst fp prog source)

let machine_variants ~k =
  let d = Sim.default_params ~k in
  [
    ("mp5", d);
    ("ideal", { d with Sim.mode = Sim.Ideal });
    ("tight-fifo", { d with Sim.fifo_capacity = 1; adaptive_fifos = false });
    ("guards", { d with Sim.starvation_threshold = Some 1; ecn_threshold = Some 1 });
  ]

let test_recycled_legs () =
  let topo = Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  let n_hosts = Topology.n_hosts topo in
  let dst (input : Machine.input) =
    (input.Machine.port + abs input.Machine.headers.(0)) mod n_hosts
  in
  let progen =
    List.map
      (fun seed ->
        let _, prog = prog_for seed in
        (Printf.sprintf "progen %d" seed, prog, 2 + (seed mod 3)))
      [ 4; 13; 58; 91 ]
  in
  let hot =
    let sw =
      Mp5_core.Switch.create_exn (Mp5_apps.Sources.sensitivity_program ~stateful:4 ~reg_size:4)
    in
    ("sensitivity 4x4", sw.Mp5_core.Switch.prog, 4)
  in
  let drops = Hashtbl.create 4 in
  List.iter
    (fun (name, prog, k) ->
      let trace = gen_trace (Rng.create (Hashtbl.hash name)) ~n_hosts ~n:160 in
      List.iter
        (fun (variant, sim) ->
          let fp = { (params_for topo ~k Linkplan.empty) with Fabric.fp_sim = sim } in
          let straight =
            completed 0 (Fabric.run ~dst fp prog (Psource.of_array trace))
          in
          let prev = try Hashtbl.find drops variant with Not_found -> 0 in
          Hashtbl.replace drops variant (prev + straight.Fabric.fr_node_dropped);
          List.iter
            (fun budget ->
              let case = Printf.sprintf "%s, %s, budget %d" name variant budget in
              let snaps_r, recycled = drain_legs ~fresh:false ~budget ~dst fp prog trace in
              let snaps_f, fresh = drain_legs ~fresh:true ~budget ~dst fp prog trace in
              if List.length snaps_r <> List.length snaps_f then
                Alcotest.failf "%s: %d recycled legs, %d fresh" case (List.length snaps_r)
                  (List.length snaps_f);
              List.iteri
                (fun i (a, b) ->
                  if a <> b then Alcotest.failf "%s: suspension %d writes different bytes" case i)
                (List.combine snaps_r snaps_f);
              if not (Fabric.results_equal recycled fresh) then
                Alcotest.failf "%s: recycled drain diverges from the fresh drain" case;
              if not (Fabric.results_equal straight recycled) then
                Alcotest.failf "%s: legged drain diverges from the straight run" case)
            [ 1; 7; 50; 500 ])
        (machine_variants ~k))
    (hot :: progen);
  (* The drop-producing configurations did drop. *)
  List.iter
    (fun variant ->
      if Hashtbl.find drops variant = 0 then
        Alcotest.failf "%s: no run of the corpus dropped a packet" variant)
    [ "tight-fifo"; "guards" ]

(* --- flat hop storage against a Queue / Hashtbl reference ---

   [Flat.Ring] is one link's FIFO of variable-length int entries and
   [Flat.Table] one switch's metadata keyed by ascending local seq.
   Random operation sequences drive each beside the boxed structure it
   replaced, and every step compares everything observable.  The
   checkers count the events the flat layout adds — an entry wrapping
   past the end of the ring, a growth, a table window compacting over
   freed seqs — so a fixed-seed case can insist that every one of them
   was exercised. *)

module Flat = Mp5_fabric.Flat
module Ring = Flat.Ring
module Table = Flat.Table

type flat_stats = { mutable wraps : int; mutable grows : int; mutable compactions : int }

let new_stats () = { wraps = 0; grows = 0; compactions = 0 }

(* An op is three raw ints, read against the current state. *)
let gen_ops =
  QCheck.(list_of_size Gen.(int_range 50 400) (triple (int_bound 19) small_nat small_nat))

let ring_entries ring =
  let acc = ref [] in
  Ring.iter ring (fun pos ->
      acc := Array.init (Ring.header_base + Ring.get ring pos Ring.nh) (Ring.get ring pos) :: !acc);
  List.rev !acc

(* An entry straddles the end of the ring's storage. *)
let ring_wrapped ring =
  let cap = Ring.capacity ring and wrapped = ref false in
  Ring.iter ring (fun pos ->
      let len = Ring.header_base + Ring.get ring pos Ring.nh in
      if (pos land (cap - 1)) + len > cap then wrapped := true);
  !wrapped

(* Ops 0-9 push an entry of [a mod 13] headers (even: [push] from the
   middle of a larger array; odd: [reserve] + [set]), 10-17 pop, 18
   clears one time in four.  [None] when the ring and the queue agree
   after every op. *)
let check_ring stats ops =
  let ring = Ring.create () and model = Queue.create () in
  let fail = ref None in
  List.iteri
    (fun step (kind, a, b) ->
      if Option.is_none !fail then begin
        let cap = Ring.capacity ring in
        (if kind < 10 then begin
           let nh = a mod 13 in
           let e = Array.init (Ring.header_base + nh) (fun i -> (b * 31) + (i * 7) + step) in
           e.(Ring.nh) <- nh;
           if kind mod 2 = 0 then
             Ring.push ring ~due:e.(Ring.due) ~aux:e.(Ring.aux) ~fseq:e.(Ring.fseq)
               ~dst:e.(Ring.dst) ~inject:e.(Ring.inject) ~hops:e.(Ring.hops) ~time:e.(Ring.time)
               ~port:e.(Ring.port)
               (Array.append [| -1; -2 |] (Array.sub e Ring.header_base nh))
               ~off:2 ~n:nh
           else begin
             let pos = Ring.reserve ring ~nh in
             Array.iteri (fun k v -> if k <> Ring.nh then Ring.set ring pos k v) e
           end;
           Queue.push e model
         end
         else if kind < 18 then begin
           match Queue.take_opt model with
           | None -> ()
           | Some e ->
               let head = Ring.head ring in
               let headers = Array.sub e Ring.header_base (Array.length e - Ring.header_base) in
               let words = Ring.words ring and mask = Ring.mask ring in
               let got =
                 Array.init (Ring.get ring head Ring.nh) (fun j ->
                     words.((head + Ring.header_base + j) land mask))
               in
               if got <> headers then
                 fail := Some (Printf.sprintf "step %d: head headers differ" step);
               Ring.pop ring
         end
         else if b mod 4 = 0 then begin
           Ring.clear ring;
           Queue.clear model
         end);
        if Ring.capacity ring > cap then stats.grows <- stats.grows + 1;
        if ring_wrapped ring then stats.wraps <- stats.wraps + 1;
        if Ring.length ring <> Queue.length model || Ring.is_empty ring <> Queue.is_empty model
        then
          fail :=
            Some
              (Printf.sprintf "step %d: length %d, model %d" step (Ring.length ring)
                 (Queue.length model))
        else if ring_entries ring <> List.of_seq (Queue.to_seq model) then
          fail := Some (Printf.sprintf "step %d: entries differ" step)
      end)
    ops;
  !fail

let table_entries tbl =
  let acc = ref [] in
  Table.iter tbl (fun seq slot ->
      acc := (seq, Array.init 4 (fun k -> Table.get tbl slot k)) :: !acc);
  List.rev !acc

(* Ops 0-7 add the next seq after a gap of [a mod 4], 8-15 remove the
   [a]-th live seq (mod the live count), 16-17 remove a seq that is not
   live (a no-op), 18 clears one time in four.  A compaction is the
   removal of the oldest live seq while the next live one sits past a
   freed seq.  [None] when the table and the hashtable agree after every
   op, on [iter], [length] and [find] of every seq up to the last one
   added. *)
let check_table stats ops =
  let tbl = Table.create () and model = Hashtbl.create 16 in
  let next = ref 0 and fail = ref None in
  let sorted () = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
  List.iteri
    (fun step (kind, a, b) ->
      if Option.is_none !fail then begin
        let cap = Table.capacity tbl in
        (if kind < 8 then begin
           let seq = !next + (a mod 4) in
           let meta = [| b; b mod 7; step; a |] in
           Table.add tbl seq ~fseq:meta.(Table.fseq) ~dst:meta.(Table.dst)
             ~inject:meta.(Table.inject) ~hops:meta.(Table.hops);
           Hashtbl.replace model seq meta;
           next := seq + 1
         end
         else if kind < 16 then begin
           match sorted () with
           | [] -> ()
           | live ->
               let seq, _ = List.nth live (a mod List.length live) in
               (match live with
               | (oldest, _) :: (after, _) :: _ when oldest = seq && after > seq + 1 ->
                   stats.compactions <- stats.compactions + 1
               | _ -> ());
               let slot = Table.find tbl seq in
               if slot < 0 then
                 fail := Some (Printf.sprintf "step %d: live seq %d not found" step seq)
               else Table.remove_slot tbl slot;
               Hashtbl.remove model seq
         end
         else if kind < 18 then begin
           let seq = a mod (!next + 2) in
           if not (Hashtbl.mem model seq) then Table.remove tbl seq
         end
         else if b mod 4 = 0 then begin
           Table.clear tbl;
           Hashtbl.reset model;
           next := 0
         end);
        if Table.capacity tbl > cap then stats.grows <- stats.grows + 1;
        if !next > Table.capacity tbl then stats.wraps <- stats.wraps + 1;
        if Table.length tbl <> Hashtbl.length model then
          fail :=
            Some
              (Printf.sprintf "step %d: length %d, model %d" step (Table.length tbl)
                 (Hashtbl.length model))
        else if table_entries tbl <> sorted () then
          fail := Some (Printf.sprintf "step %d: entries differ" step)
        else
          for seq = 0 to !next do
            if (Table.find tbl seq >= 0) <> Hashtbl.mem model seq then
              fail := Some (Printf.sprintf "step %d: find %d disagrees" step seq)
          done
      end)
    ops;
  !fail

let prop_flat_ring =
  QCheck.Test.make ~name:"flat link ring = Queue reference" ~count:200 gen_ops (fun ops ->
      match check_ring (new_stats ()) ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_flat_table =
  QCheck.Test.make ~name:"flat metadata table = Hashtbl reference" ~count:200 gen_ops (fun ops ->
      match check_table (new_stats ()) ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The same checkers over fixed-seed sequences must have wrapped, grown
   and (for the table) compacted: the properties above are only as good
   as the layouts they reached. *)
let test_flat_coverage () =
  let rand = Random.State.make [| 28 |] in
  let ring = new_stats () and table = new_stats () in
  for _ = 1 to 20 do
    let ops = QCheck.Gen.generate1 ~rand (QCheck.gen gen_ops) in
    (match check_ring ring ops with Some msg -> Alcotest.fail msg | None -> ());
    match check_table table ops with Some msg -> Alcotest.fail msg | None -> ()
  done;
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "fixed-seed sequences never %s" what)
    [
      ("wrapped a ring entry", ring.wraps);
      ("grew the ring", ring.grows);
      ("wrapped the table window", table.wraps);
      ("grew the table", table.grows);
      ("compacted the table window", table.compactions);
    ]

let () =
  Alcotest.run "fabric"
    [
      ( "differential",
        [
          Alcotest.test_case "1-switch fabric = plain streamed run (corpus slice)" `Quick
            test_degenerate;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_fabric_conservation ] );
      ( "flat",
        [
          QCheck_alcotest.to_alcotest prop_flat_ring;
          QCheck_alcotest.to_alcotest prop_flat_table;
          Alcotest.test_case "fixed-seed sequences wrap, grow and compact" `Quick
            test_flat_coverage;
        ] );
      ( "topology",
        [
          Alcotest.test_case "validation rejects malformed topologies" `Quick test_validation;
          Alcotest.test_case "zero-delay links" `Quick test_zero_delay;
          Alcotest.test_case "forwarding miss is a counted drop" `Quick test_forwarding_miss;
          Alcotest.test_case "link-down / link-delay windows" `Quick test_link_faults;
        ] );
      ( "resume",
        [
          Alcotest.test_case "a resume into the suspended machines = a fresh resume" `Quick
            test_recycled_legs;
        ] );
    ]
