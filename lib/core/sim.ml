module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Store = Mp5_banzai.Store
module Machine = Mp5_banzai.Machine
module Fifo = Mp5_arch.Fifo
module Channel = Mp5_arch.Channel
module Vec = Mp5_util.Vec
module Metrics = Mp5_obs.Metrics
module Etrace = Mp5_obs.Trace
module Prof = Mp5_obs.Prof
module Fault = Mp5_fault.Fault
module Monitor = Mp5_fault.Monitor
module Pool = Mp5_util.Pool
module Psource = Mp5_workload.Packet_source
module Binio = Mp5_util.Binio
module Hashing = Mp5_util.Hashing

type mode = Mp5 | Static_shard | No_d4 | Naive_single | Ideal

type params = {
  k : int;
  mode : mode;
  fifo_capacity : int;
  adaptive_fifos : bool;
  remap_period : int;
  shard_init : [ `Round_robin | `Random of int | `Blocked ];
  remap_noise_gate : bool;
  stateless_priority : bool;
  starvation_threshold : int option;
  ecn_threshold : int option;
}

let default_params ~k =
  {
    k;
    mode = Mp5;
    fifo_capacity = 8;
    adaptive_fifos = true;
    remap_period = 100;
    shard_init = `Round_robin;
    remap_noise_gate = true;
    stateless_priority = true;
    starvation_threshold = None;
    ecn_threshold = None;
  }

type occupancy = {
  occ_cycle : int;
  occ_slots : int option array array;          (* [stage][pipeline] -> packet id *)
  occ_queues : (int * bool) list array array;  (* [stage][pipeline] -> (packet, is_data) *)
}

type result = {
  delivered : int;
  dropped : int;
  dropped_stateless : int;
  marked : int;
  cycles : int;
  input_span : int;
  normalized_throughput : float;
  max_queue : int;
  store : Store.t;
  headers_out : (int * int array) list;
  access_seqs : (int * int, int list) Hashtbl.t;
  exit_order : int list;
  latencies : (int * int) list;
}

(* --- streaming summaries (the bounded-memory counterpart of [result]) --- *)

(* 62 bits so digest sums stay within the OCaml int range on 64-bit. *)
let digest_mask = 0x3FFF_FFFF_FFFF_FFFF

type digests = {
  dg_exits : int;
      (* FNV-1a over (seq, latency, user headers) of every exit, in exit
         order *)
  dg_access : int;
      (* per-(reg, cell) FNV-1a over the access sequence (seeded with the
         packed key), the finished per-cell digests combined by masked
         sum — commutative, so the value is independent of first-touch
         order and survives checkpoint legs *)
}

type summary = {
  s_delivered : int;
  s_dropped : int;
  s_dropped_stateless : int;
  s_marked : int;
  s_cycles : int;
  s_input_span : int;
  s_normalized_throughput : float;
  s_max_queue : int;
  s_packets : int;                  (* packets consumed from the source *)
  s_store : Store.t;
  s_digests : digests;
}

type outcome = Completed of summary | Suspended of string

type resume_error = Corrupt of string | Mismatch of string

(* --- cycle-loop variants --- *)

type loop = Auto | Generic | Fast

(* The variant lattice, selected once per run (not per cycle).  The
   *fast* loops are compiled for the bare configuration: every
   instrumentation site (metrics, event trace, fault hooks, monitor,
   observer) is statically absent from the loop body, FIFOs are known
   adaptive (pushes cannot drop), the starvation guard is known off, and
   each pipeline's deliver/apply/pop/exec chain is fused into one closed
   closure.  The *generic* loops are the PR 1-6 code paths, kept
   verbatim as the differential oracle.

   [Ideal] mode is excluded from the fast gate for two reasons: its
   per-cell queues need the [Per_cell] machinery the fused chains
   unwrap away, and its LPT re-packer reads *cumulative* access counts,
   so idle remap boundaries are observable and the quiescence
   fast-forward below would change results.  Every other mode resets
   the counters at each boundary, and [Sharding.remap_step] provably
   returns no move when all counters are zero — which is what makes
   skipping clean idle boundaries safe. *)
(* A profiler is a pure observer like metrics, but its *sampled* mode
   hooks only at cycle edges the fast loops already expose (deliver,
   arrival, the fused sweep, movement/remap/checkpoint in the shared
   suffix), so it does not close the fast gate.  *Full* mode wants the
   per-phase spans (apply/pop/exec split out) that only the generic
   loop's phase structure can time, so it routes Auto to Generic and
   makes a forced Fast a contract violation. *)
let select_loop ~loop ~jobs ~metrics ~events ~fault ~monitor ~observer ~prof (p : params) =
  let fast_ok =
    (not metrics) && (not events) && (not fault) && (not monitor) && (not observer)
    && prof <> Some Prof.Full
    && p.adaptive_fifos
    && p.starvation_threshold = None
    && p.mode <> Ideal
  in
  let par_ok =
    jobs > 1 && (not fault) && (not events) && (not observer) && p.adaptive_fifos
    && p.starvation_threshold = None
  in
  match loop with
  | Fast when not fast_ok ->
      invalid_arg
        "Sim: ~loop:Fast requested, but the run is not fast-eligible (instrumentation \
         attached, finite FIFOs, starvation guard, or Ideal mode)"
  | Fast -> if jobs > 1 then `Fast_par else `Fast_seq
  | Generic -> if par_ok then `Generic_par else `Generic_seq
  | Auto ->
      if fast_ok then (if jobs > 1 then `Fast_par else `Fast_seq)
      else if par_ok then `Generic_par
      else `Generic_seq

(* --- runtime packet state --- *)

(* A packet in flight is an arena-slot number into the struct-of-arrays
   slab ([Slab.t]): headers, seq/time-in/ECN and per-access resolution
   state all live in flat int arrays keyed by the slot.  FIFOs, stage
   slots and transfer buffers therefore carry plain ints, and the
   compiled kernels read header fields through a frame window into the
   slab — no boxed packet record exists anywhere on the hot path. *)

(* Guard resolution outcome, stored in [Slab.gk] with the same encoding
   snapshots use: 0 = unknown, 1 = known false, 2 = known true. *)
let gk_unknown = 0
and gk_false = 1
and gk_true = 2

(* Empty stage slot. *)
let no_pkt = -1

type per_cell = {
  pc_cells : (int, int Fifo.t) Hashtbl.t;
  pc_ready : (int, unit) Hashtbl.t;
  mutable pc_high : int;  (* high-water mark surviving retired cell FIFOs *)
      (* cells whose head may be ready data: refreshed on insert, on pop
         (the next entry may already be data) and on phantom
         cancellation.  Keeps the per-cycle scan proportional to the
         number of ready heads rather than to every blocked phantom. *)
}

type queue = Logical of int Fifo.t | Per_cell of per_cell

type delivery = { d_seq : int; d_stage : int; d_dest : int; d_ring : int; d_cell : int }

(* A transfer is a packet plus a packed descriptor int:
   bits 0-1 tag (0 = stateless, 1 = stateful, 2 = queued),
   bits 2-7 destination pipeline, bits 8-13 source pipeline,
   bits 14+ cell + 1 (so the unresolved cell -1 packs non-negatively).
   Packing instead of a variant record keeps the movement phase from
   allocating one block per packet per stage per cycle. *)
let t_stateless = 0
and t_stateful = 1
and t_queued = 2

let pack_transfer ~tag ~dest ~src ~cell =
  tag lor (dest lsl 2) lor (src lsl 8) lor ((cell + 1) lsl 14)

type sim = {
  p : params;
  prog : Transform.t;
  config : Config.t;
  kernel : Kernel.t;                       (* compiled (or interpreter-backed) stage kernels *)
  (* scratch frame retargeted at a packet's header fields before each
     kernel call: kernels read flat memory through the frame window, so
     no per-packet array is passed around (see {!Expr.frame}) *)
  frame : Expr.frame;
  n_stages : int;
  accesses : Transform.access array;
  accs_by_stage : int array array;         (* acc ids per stage *)
  stateful_stage : bool array;
  stores : Store.t array;                  (* one per pipeline *)
  maps : Index_map.t array;                (* one per register array *)
  sl : Slab.t;                             (* struct-of-arrays packet state *)
  fifos : queue option array array;        (* [stage][pipeline] *)
  slots : int array array;                 (* [stage][pipeline]; slab slot or [no_pkt] *)
  channel : delivery Channel.t;
  doomed : (int, unit) Hashtbl.t;
  (* starvation guard: watched head key (-1 = none) and the cycle it was
     first seen, [stage][pipeline]; two int matrices so the per-cycle
     refresh allocates nothing *)
  hw_key : int array array;
  hw_since : int array array;
  watch_heads : bool;                      (* starvation guard active? *)
  (* per-cycle transfer buffers, [stage] indexed, refilled during
     movement and drained (then cleared, keeping capacity) on apply;
     parallel vectors of packets and packed descriptors *)
  t_pkts : int Vec.t array;
  t_descs : int Vec.t array;
  (* scratch for movement_phase crossbar claims; only meaningful within
     one movement phase, so it is cleared lazily — only when the
     previous phase actually set a claim *)
  claimed : bool array array;
  mutable claims_dirty : bool;
  (* metrics *)
  mutable delivered : int;
  mutable dropped : int;
  mutable dropped_stateless : int;
  mutable marked : int;
  mutable in_flight : int;
  mutable first_exit : int;
  mutable last_exit : int;
  (* access log keyed by [reg lsl 32 lor cell] (no tuple allocation per
     lookup), accumulated into a Vec per key; the open-addressing table
     maps each key to its slot in the parallel key/vec vectors.
     Converted to the result's (reg, cell) -> seq list table in [run]'s
     epilogue *)
  access_log : Mp5_util.Int_table.t;
  log_keys : int Vec.t;
  log_vecs : int Vec.t Vec.t;
  (* [collect] selects what accumulates per exit/access: the array path
     keeps full per-packet records (the vectors above and below), the
     streaming path folds everything into constant-size FNV digest
     state — [ed_hi]/[ed_lo] for exits, [dig_hi]/[dig_lo] (parallel to
     [log_keys]) for per-cell access sequences *)
  collect : bool;
  mutable ed_hi : int;
  mutable ed_lo : int;
  dig_hi : int Vec.t;
  dig_lo : int Vec.t;
  (* exit records as three parallel vectors in exit order: rebuilding the
     result's lists walks contiguous arrays instead of a cons chain *)
  exit_seqs : int Vec.t;
  exit_headers : int array Vec.t;
  exit_lats : int Vec.t;
  (* telemetry (lib/obs): [None] when disabled, so every instrumentation
     site below costs one immediate-branch and the instrumented state
     lives entirely outside the simulated machine — results are
     bit-identical with telemetry on or off *)
  ms : Metrics.t option;
  tr : Etrace.t option;
  (* wall-clock span profiler (lib/obs/prof): same pure-observer
     discipline — [None] costs one branch per site, and all profiler
     state (clock reads included) lives outside the simulated machine,
     so results are bit-identical with profiling off/sampled/full *)
  pf : Prof.t option;
  (* fault injection and runtime invariant monitor (lib/fault): same
     discipline as the telemetry above — [None] costs one branch per
     site and leaves results bit-identical.  [flt] is mutable only so
     [resume] can swap in a runtime rebuilt from a snapshot; [fplan]
     keeps the plan itself for embedding in snapshots. *)
  mutable flt : Fault.t option;
  fplan : Fault.plan option;
  mon : Monitor.t option;
  (* ghost packets from crossbar duplication get fresh seqs starting at
     the trace length; [max_int] (never reached) when no plan is
     attached, so the one hot-loop compare that guards ghosts from
     executing stateful accesses is always-true on the no-fault path *)
  mutable dup_base : int;
  mutable dup_next : int;
  (* fabric node hooks (lib/fabric): pure observers fired at the two
     sites where a packet leaves the machine — pipeline exit and drop.
     Same discipline as the telemetry above: [None] costs one branch
     per exit/drop and the hooks never touch simulated state, so
     results are bit-identical with hooks attached or not.  Only the
     node API below sets them; the fast loop variants never run with
     hooks because nodes step through the generic phases directly. *)
  mutable on_exit : (seq:int -> latency:int -> headers:int array -> unit) option;
  mutable on_drop : (seq:int -> unit) option;
}

let new_fifo sim =
  Fifo.create ~k:sim.p.k ~capacity:sim.p.fifo_capacity ~adaptive:sim.p.adaptive_fifos

let make_queue sim =
  match sim.p.mode with
  | Ideal -> Per_cell { pc_cells = Hashtbl.create 8; pc_ready = Hashtbl.create 8; pc_high = 0 }
  | _ -> Logical (new_fifo sim)

let cell_fifo sim pc cell =
  match Hashtbl.find_opt pc.pc_cells cell with
  | Some f -> f
  | None ->
      let f = new_fifo sim in
      Hashtbl.add pc.pc_cells cell f;
      f

let create ?(compiled = true) ?(collect = true) ?metrics ?events ?fault ?monitor ?prof params
    prog =
  let config = prog.Transform.config in
  let n_stages = Array.length config.Config.stages in
  let fplan =
    match fault with Some plan when not (Fault.is_empty plan) -> Some plan | _ -> None
  in
  let flt =
    match fplan with
    | Some plan -> Some (Fault.start plan ~k:params.k ~stages:n_stages)
    | None -> None
  in
  (match metrics with
  | Some m when m.Metrics.m_stages <> n_stages || m.Metrics.m_k <> params.k ->
      invalid_arg
        (Printf.sprintf "Sim.create: metrics sized %d stages x %d, machine is %d x %d"
           m.Metrics.m_stages m.Metrics.m_k n_stages params.k)
  | _ -> ());
  let accesses = prog.Transform.accesses in
  let accs_by_stage = Array.make n_stages [] in
  Array.iter
    (fun (a : Transform.access) ->
      accs_by_stage.(a.stage) <- a.acc_id :: accs_by_stage.(a.stage))
    accesses;
  let accs_by_stage = Array.map (fun l -> Array.of_list (List.rev l)) accs_by_stage in
  let stateful_stage = Array.map (fun l -> l <> [||]) accs_by_stage in
  let rng =
    match params.shard_init with
    | `Random seed -> Some (Mp5_util.Rng.create seed)
    | `Round_robin | `Blocked -> None
  in
  let maps =
    Array.mapi
      (fun r (reg : Config.reg) ->
        let sharded =
          match params.mode with
          | Naive_single -> false
          | _ -> prog.Transform.sharded.(r)
        in
        let pinned_to =
          match params.mode with
          | Naive_single -> 0
          | _ -> (
              (* Arrays sharing a pinned stage must share a pipeline. *)
              match Config.stage_of_reg config r with
              | Some s -> s mod params.k
              | None -> 0)
        in
        let init =
          match (params.shard_init, rng) with
          | `Random _, Some rng -> `Random rng
          | `Blocked, _ -> `Blocked
          | _ -> `Round_robin
        in
        Index_map.create ~k:params.k ~reg:r ~size:reg.Config.size ~sharded ~pinned_to ~init)
      config.Config.regs
  in
  let sim =
    {
      p = params;
      prog;
      config;
      kernel = Kernel.create ~compiled prog;
      frame = Expr.frame_of_array [||];
      n_stages;
      accesses;
      accs_by_stage;
      stateful_stage;
      stores = Array.init params.k (fun _ -> Store.create config);
      maps;
      sl =
        Slab.create
          ~nf:(Array.length config.Config.fields)
          ~na:(Array.length accesses);
      fifos = Array.make_matrix n_stages params.k None;
      slots = Array.make_matrix n_stages params.k no_pkt;
      channel = Channel.create ();
      doomed = Hashtbl.create 64;
      hw_key = Array.make_matrix n_stages params.k (-1);
      hw_since = Array.make_matrix n_stages params.k 0;
      watch_heads = params.starvation_threshold <> None;
      t_pkts = Array.init n_stages (fun _ -> Vec.create ());
      t_descs = Array.init n_stages (fun _ -> Vec.create ());
      claimed = Array.make_matrix n_stages params.k false;
      claims_dirty = false;
      delivered = 0;
      dropped = 0;
      dropped_stateless = 0;
      marked = 0;
      in_flight = 0;
      first_exit = -1;
      last_exit = 0;
      access_log = Mp5_util.Int_table.create ();
      log_keys = Vec.create ();
      log_vecs = Vec.create ();
      collect;
      ed_hi = Hashing.fnv_offset_hi;
      ed_lo = Hashing.fnv_offset_lo;
      dig_hi = Vec.create ();
      dig_lo = Vec.create ();
      exit_seqs = Vec.create ();
      exit_headers = Vec.create ();
      exit_lats = Vec.create ();
      ms = metrics;
      tr = events;
      pf = prof;
      flt;
      fplan;
      mon = monitor;
      dup_base = max_int;
      dup_next = max_int;
      on_exit = None;
      on_drop = None;
    }
  in
  Array.iteri
    (fun s stateful ->
      if stateful then
        for p = 0 to params.k - 1 do
          sim.fifos.(s).(p) <- Some (make_queue sim)
        done)
    stateful_stage;
  sim

(* --- helpers --- *)

(* Release the in-flight pin access [acc_id] of slab slot [pkt] holds.
   Pin state lives at slab index [pkt * na + acc_id]. *)
let release_inflight sim pkt acc_id =
  let sl = sim.sl in
  let ai = (pkt * sl.Slab.na) + acc_id in
  if sl.Slab.counted.(ai) <> 0 then begin
    sl.Slab.counted.(ai) <- 0;
    Index_map.decr_inflight sim.maps.(sim.accesses.(acc_id).Transform.reg) sl.Slab.cell.(ai)
  end

let uses_phantoms sim = match sim.p.mode with No_d4 -> false | _ -> true

(* First access that will queue the packet at [stage]: one whose guard is
   not known false.  Returns the acc id, or -1 when the packet passes the
   stage statelessly — an int so the hot loop allocates no list. *)
let queued_acc sim pkt stage =
  let accs = sim.accs_by_stage.(stage) in
  let n = Array.length accs in
  let sl = sim.sl in
  let ab = pkt * sl.Slab.na in
  let rec go i =
    if i = n then -1
    else
      let id = Array.unsafe_get accs i in
      if sl.Slab.gk.(ab + id) <> gk_false then id else go (i + 1)
  in
  go 0

(* Encoding of [Metrics.drop_cause] for trace [aux] fields. *)
let cause_code = function
  | Metrics.Fifo_full -> 0
  | Metrics.No_phantom -> 1
  | Metrics.Starved -> 2
  | Metrics.Pipeline_down -> 3
  | Metrics.Injected -> 4

let drop_packet sim now pkt at_stage cause =
  let sl = sim.sl in
  let seq = sl.Slab.seq.(pkt) in
  sim.dropped <- sim.dropped + 1;
  sim.in_flight <- sim.in_flight - 1;
  (match sim.ms with Some m -> Metrics.drop m cause | None -> ());
  (match sim.tr with
  | Some tr ->
      Etrace.emit tr ~kind:Etrace.Drop ~cycle:now ~seq ~stage:at_stage ~pipe:0
        ~aux:(cause_code cause)
  | None -> ());
  (match sim.on_drop with Some f -> f ~seq | None -> ());
  Hashtbl.replace sim.doomed seq ();
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    if sl.Slab.done_.(ab + i) = 0 then begin
      sl.Slab.done_.(ab + i) <- 1;
      release_inflight sim pkt i;
      (* Cancel phantoms parked at later stages (already-delivered ones;
         undelivered ones are filtered by the doomed set on delivery). *)
      let plan = sim.accesses.(i) in
      if plan.Transform.stage > at_stage && sl.Slab.gk.(ab + i) <> gk_false then
        match sim.fifos.(plan.Transform.stage).(sl.Slab.dest.(ab + i)) with
        | Some (Logical f) -> Fifo.cancel f ~key:seq
        | Some (Per_cell pc) -> (
            let cell = sl.Slab.cell.(ab + i) in
            match Hashtbl.find_opt pc.pc_cells cell with
            | Some f ->
                Fifo.cancel f ~key:seq;
                (* Purging the cancelled phantom may expose ready data. *)
                Hashtbl.replace pc.pc_ready cell ()
            | None -> ())
        | None -> ()
    end
  done;
  (* The packet now lives nowhere but this slot: recycle it. *)
  Slab.release sl pkt

(* Claim a slab slot and reset it to a fresh packet; in steady state
   every arrival reuses a recycled slot and allocates nothing. *)
let alloc_packet sim ~seq ~now headers =
  let n_copy = min (Array.length headers) sim.config.Config.n_user_fields in
  let pkt = Slab.alloc sim.sl in
  let sl = sim.sl in
  sl.Slab.seq.(pkt) <- seq;
  sl.Slab.time_in.(pkt) <- now;
  sl.Slab.ecn.(pkt) <- 0;
  let fb = pkt * sl.Slab.nf in
  Array.fill sl.Slab.fields fb sl.Slab.nf 0;
  Array.blit headers 0 sl.Slab.fields fb n_copy;
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    sl.Slab.gk.(ab + i) <- gk_unknown;
    sl.Slab.cell.(ab + i) <- -1;
    sl.Slab.dest.(ab + i) <- 0;
    sl.Slab.done_.(ab + i) <- 0;
    sl.Slab.counted.(ab + i) <- 0
  done;
  pkt

(* --- fault application (lib/fault) --- *)

(* A stateful transfer created before a remap boundary can reference a
   cell that was evacuated off its destination while the packet sat in
   the transfer buffer (only [Sharding.evacuate] ignores the in-flight
   pins, and only for downed pipelines).  Such a packet is doomed:
   inserting it would break flow affinity, so the apply phase drops it. *)
let misrouted sim pkt stage dest =
  let a = queued_acc sim pkt stage in
  a >= 0
  &&
  let sl = sim.sl in
  let cell = sl.Slab.cell.((pkt * sl.Slab.na) + a) in
  cell >= 0 && Index_map.pipeline_of sim.maps.(sim.accesses.(a).Transform.reg) cell <> dest

(* Crossbar duplication: the ghost copy is a fresh packet carrying the
   original's current header contents.  Its accesses are pre-completed
   with guards known false, so it travels the remaining stages
   statelessly and exits as a visible duplicate without touching state
   or scheduling phantoms.  Ghost seqs start at the trace length
   ([dup_base]); [process_stage] skips [run_accs] for them via one
   always-predictable [seq < dup_base] compare. *)
let spawn_dup sim now src_pkt stage =
  (* A free, unclaimed slot at [stage] on a live pipeline, smallest
     index first; none free squashes the duplicate silently. *)
  let dest = ref (-1) in
  for q = sim.p.k - 1 downto 0 do
    if
      sim.slots.(stage).(q) = no_pkt
      && (not sim.claimed.(stage).(q))
      && (match sim.flt with Some f -> not (Fault.is_down f q) | None -> true)
    then dest := q
  done;
  match !dest with
  | -1 -> ()
  | q ->
      sim.claimed.(stage).(q) <- true;
      sim.claims_dirty <- true;
      let seq = sim.dup_next in
      sim.dup_next <- seq + 1;
      (* [alloc_packet] may grow the slab: read the source's metadata
         before and its arrays after. *)
      let src_time_in = sim.sl.Slab.time_in.(src_pkt) in
      let g = alloc_packet sim ~seq ~now:src_time_in [||] in
      let sl = sim.sl in
      Array.blit sl.Slab.fields (src_pkt * sl.Slab.nf) sl.Slab.fields (g * sl.Slab.nf)
        sl.Slab.nf;
      sl.Slab.ecn.(g) <- sl.Slab.ecn.(src_pkt);
      let ab = g * sl.Slab.na in
      for i = 0 to sl.Slab.na - 1 do
        sl.Slab.done_.(ab + i) <- 1;
        sl.Slab.gk.(ab + i) <- gk_false
      done;
      sim.slots.(stage).(q) <- g;
      sim.in_flight <- sim.in_flight + 1;
      (match sim.ms with Some m -> Metrics.dup_packet m | None -> ());
      (match sim.tr with
      | Some tr ->
          Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now ~seq ~stage ~pipe:q ~aux:2
      | None -> ())

(* A pipeline going down loses everything resident on it: slot
   occupants and queued data packets drop with cause [Pipeline_down],
   the queues themselves are replaced wholesale (phantoms parked there
   are lost with the hardware).  Replacing before dropping makes the
   victims' own phantom cancellations no-op against the fresh queues. *)
let spill_pipeline sim now p =
  for s = 0 to sim.n_stages - 1 do
    (let pkt = sim.slots.(s).(p) in
     if pkt <> no_pkt then begin
       sim.slots.(s).(p) <- no_pkt;
       drop_packet sim now pkt s Metrics.Pipeline_down
     end);
    sim.hw_key.(s).(p) <- -1;
    match sim.fifos.(s).(p) with
    | None -> ()
    | Some q ->
        let victims = ref [] in
        (match q with
        | Logical f -> Fifo.iter_data f (fun ~key:_ pkt -> victims := pkt :: !victims)
        | Per_cell pc ->
            Hashtbl.iter
              (fun _ f -> Fifo.iter_data f (fun ~key:_ pkt -> victims := pkt :: !victims))
              pc.pc_cells);
        sim.fifos.(s).(p) <- Some (make_queue sim);
        List.iter (fun pkt -> drop_packet sim now pkt (s - 1) Metrics.Pipeline_down) !victims
  done

(* FIFO slot loss: the ready head entry vanishes.  A blocked or empty
   head loses nothing, and Ideal's per-cell queues have no shared slots
   to lose, so both are no-ops. *)
let fifo_loss sim now s p =
  match sim.fifos.(s).(p) with
  | Some (Logical f) -> (
      match Fifo.take f with
      | `Data (_, pkt) -> drop_packet sim now pkt (s - 1) Metrics.Injected
      | `Blocked _ | `Empty -> ())
  | Some (Per_cell _) | None -> ()

(* One call per cycle whose [Fault.next_edge] has been reached: process
   the edges, count each started event, and apply the point actions. *)
let fault_edges sim f t =
  if t >= Fault.next_edge f then begin
    let before = Fault.applied f in
    let actions = Fault.on_cycle f ~now:t in
    (match sim.ms with
    | Some m ->
        for _ = before + 1 to Fault.applied f do
          Metrics.fault_event m
        done
    | None -> ());
    List.iter
      (fun (a : Fault.action) ->
        match a with
        | Fault.Down p -> spill_pipeline sim t p
        | Fault.Up _ -> ()
        | Fault.Loss (s, p) -> fifo_loss sim t s p)
      actions
  end;
  if Fault.any_down f then
    match sim.ms with
    | Some m -> Metrics.pipe_down_cycles m (Fault.n_down f)
    | None -> ()

(* --- runtime invariant monitor (lib/fault) --- *)

(* Re-derive the architecture's invariants from live machine state.
   Runs at the top of the cycle loop (and once after it), where the
   movement phase has emptied every slot into the transfer buffers, so
   in-flight = FIFO data entries + pending transfers (+ slots, counted
   anyway so the check also holds for a mid-cycle caller). *)
let monitor_phase sim mon now =
  Monitor.mark mon ~now;
  let fail fmt = Printf.ksprintf (fun s -> Monitor.report mon ~cycle:now s) fmt in
  let counted = ref 0 in
  (* A queued data packet must sit at the pipeline its queued access
     resolved to, and that pipeline must still hold its cell's state
     (D2 flow affinity) — remaps are pinned off cells with packets in
     flight, so a mismatch means sharding routed state and packet
     apart. *)
  let check_affinity stage p ~key:_ pkt =
    let a = queued_acc sim pkt stage in
    if a >= 0 then begin
      let sl = sim.sl in
      let ai = (pkt * sl.Slab.na) + a in
      let seq = sl.Slab.seq.(pkt) in
      let dest = sl.Slab.dest.(ai) and cell = sl.Slab.cell.(ai) in
      if dest <> p then
        fail "flow affinity: packet %d queued at stage %d pipe %d but resolved to pipe %d"
          seq stage p dest;
      if cell >= 0 then begin
        let home = Index_map.pipeline_of sim.maps.(sim.accesses.(a).Transform.reg) cell in
        if home <> p then
          fail "flow affinity: packet %d queued at stage %d pipe %d but cell %d lives on pipe %d"
            seq stage p cell home
      end
    end
  in
  for stage = 0 to sim.n_stages - 1 do
    for p = 0 to sim.p.k - 1 do
      if sim.slots.(stage).(p) <> no_pkt then incr counted;
      match sim.fifos.(stage).(p) with
      | None -> ()
      | Some (Logical f) ->
          counted := !counted + Fifo.data_length f;
          if (not sim.p.adaptive_fifos) && Fifo.length f > sim.p.k * sim.p.fifo_capacity
          then
            fail "FIFO occupancy: stage %d pipe %d holds %d entries, bound %d" stage p
              (Fifo.length f)
              (sim.p.k * sim.p.fifo_capacity);
          Fifo.iter_data f (check_affinity stage p)
      | Some (Per_cell pc) ->
          Hashtbl.iter
            (fun _ f ->
              counted := !counted + Fifo.data_length f;
              Fifo.iter_data f (check_affinity stage p))
            pc.pc_cells
    done
  done;
  for stage = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(stage) and descs = sim.t_descs.(stage) in
    counted := !counted + Vec.length pkts;
    (* Pending stateful transfers must still be headed to their cell's
       pipeline.  Under a fault plan a stale destination is legal — the
       apply phase is guaranteed to drop it (downed destination or the
       misroute guard) before it could execute anywhere wrong — so the
       check is only a live invariant on fault-free runs. *)
    match sim.flt with
    | Some _ -> ()
    | None ->
        for i = 0 to Vec.length pkts - 1 do
          let desc = Vec.get descs i in
          if desc land 3 = t_stateful && (desc lsr 14) - 1 >= 0 then begin
            let pkt = Vec.get pkts i in
            let dest = (desc lsr 2) land 63 in
            if misrouted sim pkt stage dest then
              fail "flow affinity: packet %d in transfer to stage %d pipe %d, cell moved away"
                sim.sl.Slab.seq.(pkt) stage dest
          end
        done
  done;
  if !counted <> sim.in_flight then
    fail "conservation: %d packets found in slots/FIFOs/transfers, %d in flight" !counted
      sim.in_flight;
  match sim.ms with
  | None -> ()
  | Some m ->
      let b = Metrics.total m.Metrics.m_busy
      and i = Metrics.total m.Metrics.m_idle
      and bl = Metrics.total m.Metrics.m_blocked in
      let expect = sim.n_stages * sim.p.k * m.Metrics.m_cycles in
      if b + i + bl <> expect then
        fail "cycle classification: busy %d + idle %d + blocked %d <> stages*k*cycles %d" b i
          bl expect;
      let sched = m.Metrics.m_phantom_scheduled in
      let accounted =
        m.Metrics.m_phantom_delivered + m.Metrics.m_phantom_doomed
        + m.Metrics.m_phantom_dropped + Channel.pending sim.channel
      in
      if sched <> accounted then
        fail "phantom conservation: %d scheduled, %d delivered+doomed+dropped+pending" sched
          accounted

(* --- address resolution (stage 0, performed on arrival; §3.3) --- *)

(* Retarget the scratch frame at a packet's header window in the slab:
   three stores, no allocation. *)
let aim sim pkt =
  let f = sim.frame in
  let sl = sim.sl in
  f.Expr.base <- sl.Slab.fields;
  f.Expr.off <- pkt * sl.Slab.nf;
  f.Expr.len <- sl.Slab.nf;
  f

let resolve sim now entry_pipeline pkt =
  (* Injected phantom-delivery delay: phantoms scheduled while the
     window is open arrive late, violating Invariant 1's preemptive
     ordering — the data packet finds no phantom and is dropped. *)
  let extra = match sim.flt with Some f -> Fault.phantom_delay f | None -> 0 in
  let frame = aim sim pkt in
  let sl = sim.sl in
  let ab = pkt * sl.Slab.na in
  let seq = sl.Slab.seq.(pkt) in
  for i = 0 to sl.Slab.na - 1 do
    let plan = sim.accesses.(i) in
    let map = sim.maps.(plan.Transform.reg) in
    (match sim.kernel.Kernel.guard.(i) with
    | Kernel.G_true -> sl.Slab.gk.(ab + i) <- gk_true
    | Kernel.G_pred p -> sl.Slab.gk.(ab + i) <- (if p frame then gk_true else gk_false)
    | Kernel.G_unknown -> sl.Slab.gk.(ab + i) <- gk_unknown);
    (match sim.kernel.Kernel.index.(i) with
    | Kernel.I_cell f ->
        let cell = f frame in
        sl.Slab.cell.(ab + i) <- cell;
        sl.Slab.dest.(ab + i) <- Index_map.pipeline_of map cell
    | Kernel.I_none ->
        sl.Slab.cell.(ab + i) <- -1;
        sl.Slab.dest.(ab + i) <- Index_map.pipeline_of map 0);
    if sl.Slab.gk.(ab + i) <> gk_false then begin
      (* Count the resolved access and pin the cell against remaps. *)
      let cell = sl.Slab.cell.(ab + i) in
      if cell >= 0 then begin
        Index_map.note_access map cell;
        if Index_map.sharded map then begin
          Index_map.incr_inflight map cell;
          sl.Slab.counted.(ab + i) <- 1
        end
      end;
      if uses_phantoms sim then begin
        (match sim.ms with Some m -> Metrics.phantom_scheduled m | None -> ());
        Channel.schedule sim.channel
          ~at:(now + plan.Transform.stage + extra)
          {
            d_seq = seq;
            d_stage = plan.Transform.stage;
            d_dest = sl.Slab.dest.(ab + i);
            d_ring = entry_pipeline;
            d_cell = cell;
          }
      end
    end
  done

(* --- per-cycle phases --- *)

let deliver_phantoms sim now =
  Channel.drain sim.channel ~now (fun d ->
      if Hashtbl.mem sim.doomed d.d_seq then begin
        (* Suppressed: the packet was dropped upstream. *)
        (match sim.ms with Some m -> Metrics.phantom_doomed m | None -> ());
        match sim.tr with
        | Some tr ->
            Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:now ~seq:d.d_seq
              ~stage:d.d_stage ~pipe:d.d_dest ~aux:1
        | None -> ()
      end
      else if
        match sim.flt with Some f -> Fault.is_down f d.d_dest | None -> false
      then begin
        (* Destination pipeline is down: the phantom is lost with it.
           Its data packet, if it survives elsewhere, is dropped on
           transfer; accounting stays conserved via phantom_dropped. *)
        (match sim.ms with Some m -> Metrics.phantom_dropped m | None -> ());
        match sim.tr with
        | Some tr ->
            Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:now ~seq:d.d_seq
              ~stage:d.d_stage ~pipe:d.d_dest ~aux:2
        | None -> ()
      end
      else begin
        let f =
          match sim.fifos.(d.d_stage).(d.d_dest) with
          | Some (Logical f) -> f
          | Some (Per_cell pc) -> cell_fifo sim pc d.d_cell
          | None -> invalid_arg "phantom destined to a stateless stage"
        in
        (match Fifo.push_phantom f ~ring:d.d_ring ~ts:d.d_seq ~key:d.d_seq with
        | `Ok -> ( match sim.ms with Some m -> Metrics.phantom_delivered m | None -> ())
        | `Dropped -> ( match sim.ms with Some m -> Metrics.phantom_dropped m | None -> ()));
        match sim.tr with
        | Some tr ->
            Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:now ~seq:d.d_seq
              ~stage:d.d_stage ~pipe:d.d_dest ~aux:0
        | None -> ()
      end)

(* Age of the blocked/queued head of a logical FIFO, for the starvation
   guard.  Updated once per cycle from the pop phase.  The watch is only
   ever read through [head_age] when [starvation_threshold] is set, so
   with the guard disabled (the default) both maintainers are no-ops —
   in particular [update_head_watch] then skips a whole [Fifo.head]
   ring scan per stateful (stage, pipeline) per cycle. *)
let watch_key sim now stage p key =
  if sim.watch_heads then begin
    if key = -1 then begin
      if sim.hw_key.(stage).(p) <> -1 then sim.hw_key.(stage).(p) <- -1
    end
    else if key <> sim.hw_key.(stage).(p) then begin
      sim.hw_key.(stage).(p) <- key;
      sim.hw_since.(stage).(p) <- now
    end
  end

let update_head_watch sim now stage p =
  if sim.watch_heads then
    match sim.fifos.(stage).(p) with
    | Some (Logical f) -> (
        match Fifo.head f with
        | `Empty -> watch_key sim now stage p (-1)
        | `Blocked key | `Data (key, _) -> watch_key sim now stage p key)
    | _ -> ()

let head_age sim now stage p =
  if sim.hw_key.(stage).(p) < 0 then 0 else now - sim.hw_since.(stage).(p)

(* The ring (and, in Ideal mode, the per-cell bookkeeping to refresh on a
   successful push) behind a stateful stage input. *)
let stage_queue sim stage ~dest ~cell =
  match sim.fifos.(stage).(dest) with
  | Some (Logical f) -> (f, None)
  | Some (Per_cell pc) -> (cell_fifo sim pc cell, Some pc)
  | None -> invalid_arg "stateful transfer to a stateless stage"

let notify_ready pc cell =
  Hashtbl.replace pc.pc_ready cell ();
  let f = Hashtbl.find pc.pc_cells cell in
  pc.pc_high <- max pc.pc_high (Fifo.max_occupancy f)

let insert_stateful sim now stage pkt ~dest ~src ~cell =
  let seq = sim.sl.Slab.seq.(pkt) in
  let push_or_insert f =
    if uses_phantoms sim then Fifo.insert_data f ~key:seq pkt
    else
      match Fifo.push_data f ~ring:src ~ts:((now lsl 22) lor seq) ~key:seq pkt with
      | `Ok -> `Ok
      | `Dropped -> `No_phantom
  in
  let f, pc = stage_queue sim stage ~dest ~cell in
  match push_or_insert f with
  | `Ok -> (
      (* A direct match: [Option.iter f] would allocate the closure
         [fun pc -> ...] on every successful insert. *)
      (match pc with Some pc -> notify_ready pc cell | None -> ());
      match sim.p.ecn_threshold with
      | Some thr when Fifo.data_length f > thr -> sim.sl.Slab.ecn.(pkt) <- 1
      | _ -> ())
  | `No_phantom ->
      (* With phantoms, a miss means the phantom was dropped by a full
         ring; without, the data push itself hit a full ring. *)
      drop_packet sim now pkt (stage - 1)
        (if uses_phantoms sim then Metrics.No_phantom else Metrics.Fifo_full)

let apply_transfers sim now =
  for stage = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(stage) and descs = sim.t_descs.(stage) in
    (* Reverse order reproduces the consing order of the transfer lists
       this buffer replaced, keeping replays bit-identical. *)
    for i = Vec.length pkts - 1 downto 0 do
      let pkt = Vec.get pkts i in
      let desc = Vec.get descs i in
      let dest = (desc lsr 2) land 63 in
      let src = (desc lsr 8) land 63 in
      (* Fault gate: 0 = deliver, 1 = drop (downed destination or the
         post-evacuation misroute guard), 2 = injected crossbar drop,
         3 = deliver and duplicate.  The drop draw precedes the dup
         draw — the order is part of the deterministic replay — and
         duplication only applies to stateless transfers. *)
      let fate =
        match sim.flt with
        | None -> 0
        | Some f ->
            if Fault.is_down f dest then 1
            else if desc land 3 = t_stateful && misrouted sim pkt stage dest then 1
            else if Fault.drop_transfer f then 2
            else if desc land 3 = t_stateless && Fault.dup_transfer f then 3
            else 0
      in
      if fate = 1 then drop_packet sim now pkt (stage - 1) Metrics.Pipeline_down
      else if fate = 2 then drop_packet sim now pkt (stage - 1) Metrics.Injected
      else begin
        (match sim.ms with
        | Some m -> Metrics.transfer m ~stage ~cross:(dest <> src)
        | None -> ());
        (match sim.tr with
        | Some tr ->
            Etrace.emit tr ~kind:Etrace.Crossbar ~cycle:now ~seq:sim.sl.Slab.seq.(pkt) ~stage
              ~pipe:dest ~aux:src
        | None -> ());
        (match desc land 3 with
        | 1 (* stateful *) ->
            insert_stateful sim now stage pkt ~dest ~src ~cell:((desc lsr 14) - 1)
        | 2 (* queued *) -> (
            let f, pc = stage_queue sim stage ~dest ~cell:(-1) in
            let seq = sim.sl.Slab.seq.(pkt) in
            match Fifo.push_data f ~ring:src ~ts:seq ~key:seq pkt with
            | `Ok -> ( match pc with Some pc -> notify_ready pc (-1) | None -> ())
            | `Dropped -> drop_packet sim now pkt (stage - 1) Metrics.Fifo_full)
        | _ (* stateless *) ->
            (* Starvation guard: sacrifice the stateless packet when the
               queued head has waited too long (§3.4). *)
            let starve =
              match sim.p.starvation_threshold with
              | Some thr ->
                  sim.stateful_stage.(stage) && head_age sim now stage dest > thr
              | None -> false
            in
            if starve then begin
              sim.dropped_stateless <- sim.dropped_stateless + 1;
              drop_packet sim now pkt (stage - 1) Metrics.Starved
            end
            else begin
              assert (sim.slots.(stage).(dest) = no_pkt);
              sim.slots.(stage).(dest) <- pkt;
              (match sim.tr with
              | Some tr ->
                  Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now
                    ~seq:sim.sl.Slab.seq.(pkt) ~stage ~pipe:dest ~aux:1
              | None -> ());
              (* Duplicate only a packet that actually went through —
                 a starved one just recycled its frame. *)
              if fate = 3 then spawn_dup sim now pkt stage
            end)
      end
    done;
    Vec.clear pkts;
    Vec.clear descs
  done

let pop_phase sim now =
  for stage = 0 to sim.n_stages - 1 do
    if sim.stateful_stage.(stage) then
      for p = 0 to sim.p.k - 1 do
        if sim.slots.(stage).(p) <> no_pkt then begin
          (* Occupied before the pop: a stateless-priority packet claimed
             the slot (Invariant 2) — busy, attributed to the claim. *)
          (match sim.ms with Some m -> Metrics.claimed m ~stage ~pipe:p | None -> ());
          update_head_watch sim now stage p
        end
        else
            let fault_blocked =
              match sim.flt with
              | None -> false
              | Some f -> Fault.is_down f p || Fault.is_stalled f ~stage ~pipe:p
            in
            if fault_blocked then (
              (* Downed or stalled pipeline: no pops this cycle.  The
                 slot-cycle is classified blocked so the cycle totals
                 stay exact. *)
              match sim.ms with
              | Some m -> Metrics.fault_stall m ~stage ~pipe:p
              | None -> ())
            else (
          match sim.fifos.(stage).(p) with
          | Some (Logical f) -> (
              (* One [Fifo.take] both decides and performs the pop; its
                 answer feeds the starvation watch, which only needs a
                 fresh [head] after a pop invalidated it.  The same answer
                 classifies the slot's cycle for free: data popped = busy,
                 phantom in front = blocked, nothing queued = idle. *)
              match Fifo.take f with
              | `Data (_, pkt) ->
                  sim.slots.(stage).(p) <- pkt;
                  (match sim.ms with Some m -> Metrics.busy m ~stage ~pipe:p | None -> ());
                  (match sim.tr with
                  | Some tr ->
                      Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now
                        ~seq:sim.sl.Slab.seq.(pkt) ~stage ~pipe:p ~aux:0
                  | None -> ());
                  update_head_watch sim now stage p
              | `Blocked key ->
                  (match sim.ms with
                  | Some m -> Metrics.stall_phantom m ~stage ~pipe:p
                  | None -> ());
                  (match sim.tr with
                  | Some tr ->
                      Etrace.emit tr ~kind:Etrace.Phantom_block ~cycle:now ~seq:key ~stage
                        ~pipe:p ~aux:0
                  | None -> ());
                  watch_key sim now stage p key
              | `Empty ->
                  (match sim.ms with
                  | Some m -> Metrics.stall_empty m ~stage ~pipe:p
                  | None -> ());
                  watch_key sim now stage p (-1))
          | Some (Per_cell pc) ->
               (* Choose the ready head with the smallest timestamp among
                  cells flagged ready; phantoms block only their own cell.
                  Iteration order does not matter: timestamps are unique,
                  so the minimum is well defined. *)
               let best = ref None in
               let candidates = Hashtbl.fold (fun cell () acc -> cell :: acc) pc.pc_ready [] in
               List.iter
                 (fun cell ->
                   match Hashtbl.find_opt pc.pc_cells cell with
                   | None -> Hashtbl.remove pc.pc_ready cell
                   | Some f -> (
                       match Fifo.head f with
                       | `Empty ->
                           Hashtbl.remove pc.pc_cells cell;
                           Hashtbl.remove pc.pc_ready cell
                       | `Blocked _ -> Hashtbl.remove pc.pc_ready cell
                       | `Data (key, _) -> (
                           match !best with
                           | Some (bkey, _, _) when bkey <= key -> ()
                           | _ -> best := Some (key, f, cell))))
                 candidates;
               (match !best with
               | Some (_, f, cell) ->
                   let pkt = Fifo.pop_data f in
                   sim.slots.(stage).(p) <- pkt;
                   (match sim.ms with Some m -> Metrics.busy m ~stage ~pipe:p | None -> ());
                   (match sim.tr with
                   | Some tr ->
                       Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now
                         ~seq:sim.sl.Slab.seq.(pkt) ~stage ~pipe:p ~aux:0
                   | None -> ());
                   (* The next entry of this cell may already be data. *)
                   Hashtbl.replace pc.pc_ready cell ()
               | None -> (
                   (* Metrics-only walk: anything still queued in any cell
                      means the stall is head-of-line blocking, not an
                      empty queue. *)
                   match sim.ms with
                   | Some m ->
                       let queued =
                         Hashtbl.fold (fun _ f acc -> acc || Fifo.length f > 0) pc.pc_cells false
                       in
                       if queued then Metrics.stall_phantom m ~stage ~pipe:p
                       else Metrics.stall_empty m ~stage ~pipe:p
                   | None -> ()))
          | None -> ())
      done
  done

(* Completes the cycle classification the pop phase started (metrics-on
   only, called right after it): stateless stages have no queue to pop,
   so their slots classify directly — occupied = busy, vacant = idle —
   and stateful stages get their post-pop queue depth sampled into the
   occupancy histogram.  Together with the pop phase this visits every
   (stage, pipeline) exactly once per cycle, which is what makes
   busy + idle + blocked = stages * k * cycles hold by construction. *)
let metrics_sweep sim m =
  for stage = 0 to sim.n_stages - 1 do
    if sim.stateful_stage.(stage) then
      for p = 0 to sim.p.k - 1 do
        let depth =
          match sim.fifos.(stage).(p) with
          | Some (Logical f) -> Fifo.data_length f
          | Some (Per_cell pc) ->
              Hashtbl.fold (fun _ f acc -> acc + Fifo.data_length f) pc.pc_cells 0
          | None -> 0
        in
        Metrics.occupancy m ~stage ~pipe:p ~depth
      done
    else
      for p = 0 to sim.p.k - 1 do
        if sim.slots.(stage).(p) <> no_pkt then Metrics.busy m ~stage ~pipe:p
        else Metrics.stall_empty m ~stage ~pipe:p
      done
  done

(* The key packs (reg, cell) into one int so the per-access lookup
   allocates no tuple; [Int_table.find]'s Not_found (an exception, not an
   option) keeps the found path allocation-free too.  In streaming mode
   ([collect = false]) the per-cell record is two ints of FNV state
   instead of a growing seq vector, so memory stays proportional to the
   register file, not to the packet count. *)
let log_access sim reg cell seq =
  let key = (reg lsl 32) lor cell in
  match Mp5_util.Int_table.find sim.access_log key with
  | i ->
      if sim.collect then Vec.push (Vec.get sim.log_vecs i) seq
      else begin
        let hi, lo = Hashing.feed_int_halves (Vec.get sim.dig_hi i) (Vec.get sim.dig_lo i) seq in
        Vec.set sim.dig_hi i hi;
        Vec.set sim.dig_lo i lo
      end
  | exception Not_found ->
      Mp5_util.Int_table.replace sim.access_log key (Vec.length sim.log_keys);
      Vec.push sim.log_keys key;
      if sim.collect then begin
        let v = Vec.create () in
        Vec.push v seq;
        Vec.push sim.log_vecs v
      end
      else begin
        let hi, lo = Hashing.feed_int_halves Hashing.fnv_offset_hi Hashing.fnv_offset_lo key in
        let hi, lo = Hashing.feed_int_halves hi lo seq in
        Vec.push sim.dig_hi hi;
        Vec.push sim.dig_lo lo
      end

(* Masked commutative sum of the finished per-cell digests. *)
let access_digest sim =
  let acc = ref 0 in
  for i = 0 to Vec.length sim.log_keys - 1 do
    acc :=
      (!acc + Hashing.finish (Vec.get sim.dig_hi i, Vec.get sim.dig_lo i)) land digest_mask
  done;
  !acc

(* A plain indexed loop: no closure allocation, and the kernels
   themselves (closures built once at [create]) walk no AST and allocate
   nothing.  The cell resolved at arrival is handed to the kernel so a
   resolvable index is hashed once per packet, not twice; the
   interpreter-backed kernel recomputes it and the assert cross-checks
   the two derivations. *)
let run_accs sim pkt pipeline accs =
  let frame = aim sim pkt in
  let sl = sim.sl in
  let ab = pkt * sl.Slab.na in
  let seq = sl.Slab.seq.(pkt) in
  for i = 0 to Array.length accs - 1 do
    let acc_id = Array.unsafe_get accs i in
    let reg = sim.accesses.(acc_id).Transform.reg in
    let reg_array = Store.array sim.stores.(pipeline) ~reg in
    let cell = sim.kernel.Kernel.exec.(acc_id) frame reg_array sl.Slab.cell.(ab + acc_id) in
    if cell >= 0 then begin
      assert (sl.Slab.cell.(ab + acc_id) < 0 || sl.Slab.cell.(ab + acc_id) = cell);
      assert (sl.Slab.dest.(ab + acc_id) = pipeline);
      log_access sim reg cell seq
    end;
    sl.Slab.done_.(ab + acc_id) <- 1;
    release_inflight sim pkt acc_id
  done

let process_stage sim pkt stage pipeline =
  sim.kernel.Kernel.stateless.(stage) (aim sim pkt);
  (* Ghost packets (crossbar duplicates, seqs >= dup_base) never touch
     state; [dup_base] is [max_int] on the no-fault path, so the
     compare is always-true there. *)
  if sim.sl.Slab.seq.(pkt) < sim.dup_base then
    run_accs sim pkt pipeline sim.accs_by_stage.(stage)

let exec_phase sim now =
  (* stage 0 is address resolution, performed on arrival *)
  for stage = 1 to sim.n_stages - 1 do
    for p = 0 to sim.p.k - 1 do
      let pkt = sim.slots.(stage).(p) in
      if pkt <> no_pkt then process_stage sim pkt stage p
    done
  done;
  ignore now

let movement_phase sim now =
  (* Claims for stateless movers entering each stage next cycle; the
     scratch matrix lives in the sim record so the loop allocates
     nothing. *)
  let claimed = sim.claimed in
  if sim.claims_dirty then begin
    Array.iter (fun row -> Array.fill row 0 (Array.length row) false) claimed;
    sim.claims_dirty <- false
  end;
  (* Downed pipelines take no stateless traffic: pre-claim their slots
     so the crossbar steers around them.  Slots on downed pipelines are
     always empty (spilled on the down edge, nothing admitted since),
     so at most k - n_down movers compete for k - n_down live slots and
     the steering below still always finds a destination. *)
  (match sim.flt with
  | Some f when Fault.any_down f ->
      for s = 0 to sim.n_stages - 1 do
        for p = 0 to sim.p.k - 1 do
          if Fault.is_down f p then claimed.(s).(p) <- true
        done
      done;
      sim.claims_dirty <- true
  | _ -> ());
  for stage = sim.n_stages - 1 downto 0 do
    for p = 0 to sim.p.k - 1 do
      let pkt = sim.slots.(stage).(p) in
      if pkt <> no_pkt then begin
          sim.slots.(stage).(p) <- no_pkt;
          let next = stage + 1 in
          if next = sim.n_stages then begin
            (* Exit the pipeline. *)
            let sl = sim.sl in
            let seq = sl.Slab.seq.(pkt) in
            let time_in = sl.Slab.time_in.(pkt) in
            let ecn = sl.Slab.ecn.(pkt) <> 0 in
            let fb = pkt * sl.Slab.nf in
            sim.delivered <- sim.delivered + 1;
            sim.in_flight <- sim.in_flight - 1;
            if ecn then sim.marked <- sim.marked + 1;
            (match sim.ms with
            | Some m -> Metrics.delivered m ~latency:(now - time_in) ~ecn
            | None -> ());
            (match sim.tr with
            | Some tr ->
                Etrace.emit tr ~kind:Etrace.Deliver ~cycle:now ~seq ~stage ~pipe:p
                  ~aux:(now - time_in)
            | None -> ());
            if sim.first_exit < 0 then sim.first_exit <- now;
            sim.last_exit <- now;
            (match sim.on_exit with
            | Some f ->
                f ~seq ~latency:(now - time_in)
                  ~headers:(Array.sub sl.Slab.fields fb sim.config.Config.n_user_fields)
            | None -> ());
            if sim.collect then begin
              Vec.push sim.exit_seqs seq;
              Vec.push sim.exit_headers
                (Array.sub sl.Slab.fields fb sim.config.Config.n_user_fields);
              Vec.push sim.exit_lats (now - time_in)
            end
            else begin
              (* Streaming: fold the exit record into the running digest
                 instead of keeping it. *)
              let hi = ref sim.ed_hi and lo = ref sim.ed_lo in
              let feed x =
                let h, l = Hashing.feed_int_halves !hi !lo x in
                hi := h;
                lo := l
              in
              feed seq;
              feed (now - time_in);
              for f = 0 to sim.config.Config.n_user_fields - 1 do
                feed sl.Slab.fields.(fb + f)
              done;
              sim.ed_hi <- !hi;
              sim.ed_lo <- !lo
            end;
            (* The user headers are copied out above; the slot itself is
               free to be recycled. *)
            Slab.release sl pkt
          end
          else begin
            let acc_id = queued_acc sim pkt next in
            if acc_id >= 0 then begin
              let sl = sim.sl in
              let ai = (pkt * sl.Slab.na) + acc_id in
              Vec.push sim.t_pkts.(next) pkt;
              Vec.push sim.t_descs.(next)
                (pack_transfer ~tag:t_stateful ~dest:sl.Slab.dest.(ai) ~src:p
                   ~cell:sl.Slab.cell.(ai))
            end
            else if sim.stateful_stage.(next) && not sim.p.stateless_priority then begin
              (* Invariant 2 disabled: stateless packets take their place
                 in the queue like everybody else. *)
              Vec.push sim.t_pkts.(next) pkt;
              Vec.push sim.t_descs.(next)
                (pack_transfer ~tag:t_queued ~dest:p ~src:p ~cell:(-1))
            end
            else begin
              (* Stateless at [next]: the crossbar steers it to a free
                 pipeline, preferring the current one. *)
              let dest =
                if not claimed.(next).(p) then p
                else begin
                  let d = ref (-1) in
                  for q = sim.p.k - 1 downto 0 do
                    if not claimed.(next).(q) then d := q
                  done;
                  !d
                end
              in
              assert (dest >= 0);
              claimed.(next).(dest) <- true;
              sim.claims_dirty <- true;
              Vec.push sim.t_pkts.(next) pkt;
              Vec.push sim.t_descs.(next)
                (pack_transfer ~tag:t_stateless ~dest ~src:p ~cell:(-1))
            end
          end
      end
    done
  done

(* Per-leg loop bookkeeping, shared by [run], [run_source] and [resume]
   and serialized whole into snapshots.  [sd_hi]/[sd_lo] digest every
   packet consumed from the source ([track_src] gates the cost to runs
   that can checkpoint), so a resume that replays the source from the
   start can prove it is feeding the same packets. *)
type loop_state = {
  mutable now : int;
  first_arrival : int;
  mutable last_score : int;
  mutable last_progress_t : int;
  mutable visited : int;          (* cycles simulated in this leg *)
  mutable sd_hi : int;
  mutable sd_lo : int;
  track_src : bool;
}

let fold_src_digest hi lo (input : Machine.input) =
  let hi = ref hi and lo = ref lo in
  let feed x =
    let h, l = Hashing.feed_int_halves !hi !lo x in
    hi := h;
    lo := l
  in
  feed input.Machine.time;
  feed input.Machine.port;
  feed (Array.length input.Machine.headers);
  Array.iter feed input.Machine.headers;
  (!hi, !lo)

let arrival_phase sim now source st =
  (* Admit up to one packet per pipeline into the address-resolution
     stage; the Naive_single baseline funnels everything into pipeline
     0, and a downed pipeline admits nothing (degraded capacity is
     (k - n_down)/k of ideal by construction). *)
  let max_accept = match sim.p.mode with Naive_single -> 1 | _ -> sim.p.k in
  let entry = ref 0 in
  let skip_down () =
    match sim.flt with
    | Some f -> while !entry < max_accept && Fault.is_down f !entry do incr entry done
    | None -> ()
  in
  skip_down ();
  let admitting = ref true in
  while !admitting do
    if !entry >= max_accept then admitting := false
    else
      match Psource.peek source with
      | Some input when input.Machine.time <= now ->
          ignore (Psource.next source : Machine.input option);
          let seq = Psource.consumed source - 1 in
          if st.track_src then begin
            let hi, lo = fold_src_digest st.sd_hi st.sd_lo input in
            st.sd_hi <- hi;
            st.sd_lo <- lo
          end;
          let pkt = alloc_packet sim ~seq ~now input.Machine.headers in
          let pipeline = !entry in
          (match sim.ms with Some m -> Metrics.arrival m | None -> ());
          (match sim.tr with
          | Some tr ->
              Etrace.emit tr ~kind:Etrace.Arrival ~cycle:now ~seq ~stage:0 ~pipe:pipeline
                ~aux:0
          | None -> ());
          resolve sim now pipeline pkt;
          sim.slots.(0).(pipeline) <- pkt;
          sim.in_flight <- sim.in_flight + 1;
          incr entry;
          skip_down ()
      | _ -> admitting := false
  done

let remap_phase sim now =
  (match sim.ms with Some m -> Metrics.remap_period m | None -> ());
  let dynamic = match sim.p.mode with Mp5 | No_d4 -> true | _ -> false in
  (* Pipeline load spread (max - min of aggregate access counters) around
     each applied move; metrics-on only, and read before [reset_counts]
     zeroes the counters the spread is computed from. *)
  let imbalance map =
    let loads = Index_map.per_pipeline_load map in
    let mx = ref loads.(0) and mn = ref loads.(0) in
    Array.iter
      (fun l ->
        if l > !mx then mx := l;
        if l < !mn then mn := l)
      loads;
    !mx - !mn
  in
  let apply_move map r (mv : Sharding.move) =
    (match sim.ms with
    | Some m ->
        let before = imbalance map in
        Sharding.apply map ~stores:sim.stores ~reg:r mv;
        Metrics.remap_move m ~before ~after:(imbalance map)
    | None -> Sharding.apply map ~stores:sim.stores ~reg:r mv);
    match sim.tr with
    | Some tr ->
        Etrace.emit tr ~kind:Etrace.Remap ~cycle:now ~seq:(-1) ~stage:r ~pipe:mv.Sharding.to_
          ~aux:mv.Sharding.cell
    | None -> ()
  in
  (* Degraded mode: dynamic modes exclude downed pipelines from the
     heuristics and first evacuate every resident cell off them — mass
     migration through the same remap path.  [Static_shard] gets
     neither (its map is frozen), which is exactly why it cannot
     recover from a pipeline loss. *)
  let down =
    match sim.flt with
    | Some f when Fault.any_down f -> Some (Fault.down_mask f)
    | _ -> None
  in
  Array.iteri
    (fun r map ->
      if Index_map.sharded map then begin
        (match (down, sim.p.mode) with
        | Some d, (Mp5 | No_d4 | Ideal) ->
            List.iter
              (fun m ->
                apply_move map r m;
                match sim.ms with Some ms -> Metrics.evac_move ms | None -> ())
              (Sharding.evacuate map ~down:d)
        | _ -> ());
        match sim.p.mode with
        | Ideal ->
            (* The ideal packer sees cumulative access counts — perfect
               knowledge of the access distribution — so its assignment
               converges instead of chasing per-period noise. *)
            List.iter (fun m -> apply_move map r m) (Sharding.lpt_remap ?down map)
        | _ when dynamic ->
            (match Sharding.remap_step ~noise_gate:sim.p.remap_noise_gate ?down map with
            | Some m -> apply_move map r m
            | None -> ());
            Index_map.reset_counts map
        | _ -> Index_map.reset_counts map
      end)
    sim.maps

(* --- main loop --- *)

let merge_stores sim =
  let merged = Store.create sim.config in
  Array.iteri
    (fun r map ->
      for cell = 0 to Index_map.size map - 1 do
        let p = Index_map.pipeline_of map cell in
        Store.set merged ~reg:r ~idx:cell (Store.get sim.stores.(p) ~reg:r ~idx:cell)
      done)
    sim.maps;
  merged

let max_queue_depth sim =
  let m = ref 0 in
  Array.iter
    (fun row ->
      Array.iter
        (function
          | Some (Logical f) -> m := max !m (Fifo.max_occupancy f)
          | Some (Per_cell pc) ->
              m := max !m pc.pc_high;
              Hashtbl.iter (fun _ f -> m := max !m (Fifo.max_occupancy f)) pc.pc_cells
          | None -> ())
        row)
    sim.fifos;
  !m

let observe sim now observer =
  match observer with
  | None -> ()
  | Some f ->
      let occ_slots =
        Array.map
          (Array.map (fun pkt -> if pkt = no_pkt then None else Some sim.sl.Slab.seq.(pkt)))
          sim.slots
      in
      let occ_queues =
        Array.map
          (Array.map (function
            | None -> []
            | Some (Logical fifo) -> Fifo.snapshot fifo
            | Some (Per_cell pc) ->
                Hashtbl.fold (fun _ f acc -> Fifo.snapshot f @ acc) pc.pc_cells []
                |> List.sort compare))
          sim.fifos
      in
      f { occ_cycle = now; occ_slots; occ_queues }

(* --- parallel cycle engine ---

   Each pipeline's deliver -> apply -> pop -> sweep -> exec chain
   touches only state keyed by that pipeline (its FIFO column, its slot
   column, its store, the inflight counters of cells it homes), so the
   chains for different pipelines can run on different domains between
   two sequential sections:

   - prefix (caller only): monitor epoch, cycle tick, calendar drain
     into per-destination buffers, arrivals (the only slab allocation);
   - fan-out: domain [j] runs the chain for every pipeline [p] with
     [p mod jobs = j];
   - barrier (caller only): replay buffered access-log entries in the
     sequential engine's exec order, absorb per-domain metric shards,
     check transfer conservation, clear the cycle buffers.  Movement and
     remap stay in the sequential suffix (crossbar steering is global).

   The fan-out is only taken under a gate that excludes everything that
   could drop or free a packet mid-cycle (fault plans, bounded rings,
   the starvation guard) or that observes mid-cycle state in sequential
   order (event traces, observers), so the parallel sections never
   release slab slots and never race the shared drop/trace paths.  Under
   the gate the chains write disjoint state, the barrier re-serializes
   the only shared logs, and every merge is order-independent
   (commutative counter sums, max-merged high-water marks) — which is
   the determinism argument for bit-identical results at any [jobs]. *)

type par_state = {
  ps_team : Pool.Team.t;
  ps_jobs : int;
  (* per-domain kernel clones: compiled stateful kernels thread their
     match state through a captured ref, so domains must not share one *)
  ps_kernels : Kernel.t array;
  ps_frames : Expr.frame array;
  (* per-domain metrics shards, absorbed at the barrier; [||] when the
     run is unmetered *)
  ps_shards : Metrics.t array;
  (* phantom deliveries due this cycle, bucketed by destination
     pipeline in the prefix drain *)
  ps_dbuf : delivery Vec.t array;
  (* buffered access-log entries per (stage, pipeline), three ints
     (reg, cell, seq) per access, replayed at the barrier *)
  ps_log : int Vec.t array array;
  (* per-pipeline applied-transfer counts for the conservation check *)
  ps_applied : int array;
  (* per-domain fan-out end timestamps (profiling only): each domain
     writes its own slot right before leaving [Pool.Team.run], and the
     join's happens-before makes the reads below race-free.  The caller
     reconstructs compute = mark - fan and barrier = join - mark. *)
  ps_marks : int array;
}

let make_par_state sim team =
  let jobs = Pool.Team.size team in
  {
    ps_team = team;
    ps_jobs = jobs;
    ps_kernels =
      Array.init jobs (fun j ->
          if j = 0 then sim.kernel
          else Kernel.create ~compiled:sim.kernel.Kernel.compiled sim.prog);
    ps_frames = Array.init jobs (fun j -> if j = 0 then sim.frame else Expr.frame_of_array [||]);
    ps_shards =
      (match sim.ms with
      | Some _ -> Array.init jobs (fun _ -> Metrics.create ~stages:sim.n_stages ~k:sim.p.k)
      | None -> [||]);
    ps_dbuf = Array.init sim.p.k (fun _ -> Vec.create ());
    ps_log = Array.init sim.n_stages (fun _ -> Array.init sim.p.k (fun _ -> Vec.create ()));
    ps_applied = Array.make sim.p.k 0;
    ps_marks = Array.make jobs 0;
  }

(* [deliver_phantoms] for one pipeline's pre-drained bucket.  The gate
   guarantees no fault plan (no downed destinations) and no event trace,
   so only the live branches remain. *)
let par_deliver sim ms dbuf =
  for i = 0 to Vec.length dbuf - 1 do
    let d = Vec.get dbuf i in
    if Hashtbl.mem sim.doomed d.d_seq then (
      match ms with Some m -> Metrics.phantom_doomed m | None -> ())
    else begin
      let f =
        match sim.fifos.(d.d_stage).(d.d_dest) with
        | Some (Logical f) -> f
        | Some (Per_cell pc) -> cell_fifo sim pc d.d_cell
        | None -> invalid_arg "phantom destined to a stateless stage"
      in
      match Fifo.push_phantom f ~ring:d.d_ring ~ts:d.d_seq ~key:d.d_seq with
      | `Ok -> ( match ms with Some m -> Metrics.phantom_delivered m | None -> ())
      | `Dropped -> ( match ms with Some m -> Metrics.phantom_dropped m | None -> ())
    end
  done

let par_insert_stateful sim now stage pkt ~dest ~src ~cell =
  let seq = sim.sl.Slab.seq.(pkt) in
  let push_or_insert f =
    if uses_phantoms sim then Fifo.insert_data f ~key:seq pkt
    else
      match Fifo.push_data f ~ring:src ~ts:((now lsl 22) lor seq) ~key:seq pkt with
      | `Ok -> `Ok
      | `Dropped -> `No_phantom
  in
  let f, pc = stage_queue sim stage ~dest ~cell in
  match push_or_insert f with
  | `Ok -> (
      (match pc with Some pc -> notify_ready pc cell | None -> ());
      match sim.p.ecn_threshold with
      | Some thr when Fifo.data_length f > thr -> sim.sl.Slab.ecn.(pkt) <- 1
      | _ -> ())
  | `No_phantom ->
      (* Unreachable under the parallel gate: adaptive rings never drop
         a push, and fault-free Invariant 1 guarantees the phantom
         precedes its data packet. *)
      assert false

(* [apply_transfers] for one destination pipeline: walk the shared
   buffers in the sequential order (stage ascending, index descending)
   and take only the descriptors steered here.  Same-destination
   relative order — the only order a FIFO can see — is preserved.
   Returns the number applied, for the barrier conservation check. *)
let par_apply sim ms now pipe =
  let applied = ref 0 in
  for stage = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(stage) and descs = sim.t_descs.(stage) in
    for i = Vec.length pkts - 1 downto 0 do
      let desc = Vec.get descs i in
      let dest = (desc lsr 2) land 63 in
      if dest = pipe then begin
        let pkt = Vec.get pkts i in
        let src = (desc lsr 8) land 63 in
        incr applied;
        (match ms with
        | Some m -> Metrics.transfer m ~stage ~cross:(dest <> src)
        | None -> ());
        match desc land 3 with
        | 1 (* stateful *) ->
            par_insert_stateful sim now stage pkt ~dest ~src ~cell:((desc lsr 14) - 1)
        | 2 (* queued *) -> (
            let f, pc = stage_queue sim stage ~dest ~cell:(-1) in
            let seq = sim.sl.Slab.seq.(pkt) in
            match Fifo.push_data f ~ring:src ~ts:seq ~key:seq pkt with
            | `Ok -> ( match pc with Some pc -> notify_ready pc (-1) | None -> ())
            | `Dropped -> assert false (* adaptive rings never drop *))
        | _ (* stateless *) ->
            (* No starvation guard under the gate (threshold = None). *)
            assert (sim.slots.(stage).(dest) = no_pkt);
            sim.slots.(stage).(dest) <- pkt
      end
    done
  done;
  !applied

(* [pop_phase] for one pipeline.  The head watch is inert under the
   gate ([watch_heads] is false), fault stalls cannot occur, and there
   is no event trace — only the live branches remain. *)
let par_pop sim ms p =
  for stage = 0 to sim.n_stages - 1 do
    if sim.stateful_stage.(stage) then begin
      if sim.slots.(stage).(p) <> no_pkt then (
        match ms with Some m -> Metrics.claimed m ~stage ~pipe:p | None -> ())
      else
        match sim.fifos.(stage).(p) with
        | Some (Logical f) -> (
            match Fifo.take f with
            | `Data (_, pkt) -> (
                sim.slots.(stage).(p) <- pkt;
                match ms with Some m -> Metrics.busy m ~stage ~pipe:p | None -> ())
            | `Blocked _ -> (
                match ms with Some m -> Metrics.stall_phantom m ~stage ~pipe:p | None -> ())
            | `Empty -> (
                match ms with Some m -> Metrics.stall_empty m ~stage ~pipe:p | None -> ()))
        | Some (Per_cell pc) -> (
            let best = ref None in
            let candidates = Hashtbl.fold (fun cell () acc -> cell :: acc) pc.pc_ready [] in
            List.iter
              (fun cell ->
                match Hashtbl.find_opt pc.pc_cells cell with
                | None -> Hashtbl.remove pc.pc_ready cell
                | Some f -> (
                    match Fifo.head f with
                    | `Empty ->
                        Hashtbl.remove pc.pc_cells cell;
                        Hashtbl.remove pc.pc_ready cell
                    | `Blocked _ -> Hashtbl.remove pc.pc_ready cell
                    | `Data (key, _) -> (
                        match !best with
                        | Some (bkey, _, _) when bkey <= key -> ()
                        | _ -> best := Some (key, f, cell))))
              candidates;
            match !best with
            | Some (_, f, cell) ->
                let pkt = Fifo.pop_data f in
                sim.slots.(stage).(p) <- pkt;
                (match ms with Some m -> Metrics.busy m ~stage ~pipe:p | None -> ());
                Hashtbl.replace pc.pc_ready cell ()
            | None -> (
                match ms with
                | Some m ->
                    let queued =
                      Hashtbl.fold (fun _ f acc -> acc || Fifo.length f > 0) pc.pc_cells false
                    in
                    if queued then Metrics.stall_phantom m ~stage ~pipe:p
                    else Metrics.stall_empty m ~stage ~pipe:p
                | None -> ()))
        | None -> ()
    end
  done

(* [metrics_sweep] for one pipeline, into a shard. *)
let par_sweep sim m p =
  for stage = 0 to sim.n_stages - 1 do
    if sim.stateful_stage.(stage) then begin
      let depth =
        match sim.fifos.(stage).(p) with
        | Some (Logical f) -> Fifo.data_length f
        | Some (Per_cell pc) ->
            Hashtbl.fold (fun _ f acc -> acc + Fifo.data_length f) pc.pc_cells 0
        | None -> 0
      in
      Metrics.occupancy m ~stage ~pipe:p ~depth
    end
    else if sim.slots.(stage).(p) <> no_pkt then Metrics.busy m ~stage ~pipe:p
    else Metrics.stall_empty m ~stage ~pipe:p
  done

let par_aim frame sim pkt =
  let sl = sim.sl in
  frame.Expr.base <- sl.Slab.fields;
  frame.Expr.off <- pkt * sl.Slab.nf;
  frame.Expr.len <- sl.Slab.nf;
  frame

(* [run_accs] with a per-domain kernel and frame; accesses are buffered
   into [logbuf] instead of touching the shared access log. *)
let par_run_accs sim kernel frame logbuf pkt pipeline accs =
  let frame = par_aim frame sim pkt in
  let sl = sim.sl in
  let ab = pkt * sl.Slab.na in
  let seq = sl.Slab.seq.(pkt) in
  for i = 0 to Array.length accs - 1 do
    let acc_id = Array.unsafe_get accs i in
    let reg = sim.accesses.(acc_id).Transform.reg in
    let reg_array = Store.array sim.stores.(pipeline) ~reg in
    let cell = kernel.Kernel.exec.(acc_id) frame reg_array sl.Slab.cell.(ab + acc_id) in
    if cell >= 0 then begin
      assert (sl.Slab.cell.(ab + acc_id) < 0 || sl.Slab.cell.(ab + acc_id) = cell);
      assert (sl.Slab.dest.(ab + acc_id) = pipeline);
      Vec.push logbuf reg;
      Vec.push logbuf cell;
      Vec.push logbuf seq
    end;
    sl.Slab.done_.(ab + acc_id) <- 1;
    release_inflight sim pkt acc_id
  done

let par_exec sim ps j p =
  let kernel = ps.ps_kernels.(j) and frame = ps.ps_frames.(j) in
  for stage = 1 to sim.n_stages - 1 do
    let pkt = sim.slots.(stage).(p) in
    if pkt <> no_pkt then begin
      kernel.Kernel.stateless.(stage) (par_aim frame sim pkt);
      if sim.sl.Slab.seq.(pkt) < sim.dup_base then
        par_run_accs sim kernel frame ps.ps_log.(stage).(p) pkt p sim.accs_by_stage.(stage)
    end
  done

(* One parallel cycle: everything [drive]'s sequential arm does from
   the monitor epoch through [exec_phase], leaving movement and remap
   to the shared sequential suffix. *)
let par_cycle sim ps now source st =
  (* sequential prefix *)
  (match sim.mon with
  | Some mon when Monitor.due mon ~now -> monitor_phase sim mon now
  | _ -> ());
  (match sim.ms with Some m -> Metrics.on_cycle m | None -> ());
  (match sim.pf with
  | None -> Channel.drain sim.channel ~now (fun d -> Vec.push ps.ps_dbuf.(d.d_dest) d)
  | Some pf ->
      let t0 = Prof.now () in
      Channel.drain sim.channel ~now (fun d -> Vec.push ps.ps_dbuf.(d.d_dest) d);
      Prof.record pf Prof.Deliver ~t0);
  (* Arrivals hoisted before the fan-out: under the gate the arrival
     phase touches only stage-0 slots, the slab allocator and the
     phantom calendar — none of which deliver/apply read or write — so
     hoisting is behavior-preserving and keeps every slab allocation
     (the arrays may move when they grow) in sequential code. *)
  (match sim.pf with
  | None -> arrival_phase sim now source st
  | Some pf ->
      let t0 = Prof.now () in
      arrival_phase sim now source st;
      Prof.record pf Prof.Source ~t0);
  let k = sim.p.k and jobs = ps.ps_jobs in
  let fan j =
    let ms = if ps.ps_shards = [||] then None else Some ps.ps_shards.(j) in
    let p = ref j in
    while !p < k do
      let pipe = !p in
      par_deliver sim ms ps.ps_dbuf.(pipe);
      ps.ps_applied.(pipe) <- par_apply sim ms now pipe;
      par_pop sim ms pipe;
      (match ms with Some m -> par_sweep sim m pipe | None -> ());
      par_exec sim ps j pipe;
      p := !p + jobs
    done
  in
  (match sim.pf with
  | None -> Pool.Team.run ps.ps_team fan
  | Some pf ->
      (* Per-domain barrier attribution: each domain stamps its own
         [ps_marks] slot as it finishes (single writer; the join gives
         happens-before), so compute(j) = mark(j) - fan and
         barrier(j) = join - mark(j) partition the fan-out wall time. *)
      let t_fan = Prof.now () in
      Pool.Team.run ps.ps_team (fun j ->
          fan j;
          ps.ps_marks.(j) <- Prof.now ());
      let t_join = Prof.now () in
      for j = 0 to jobs - 1 do
        let mark = ps.ps_marks.(j) in
        Prof.add pf ~domain:j Prof.Compute ~ts:t_fan ~dur:(mark - t_fan);
        Prof.add pf ~domain:j Prof.Barrier ~ts:mark ~dur:(t_join - mark)
      done);
  let t_replay = match sim.pf with Some _ -> Prof.now () | None -> 0 in
  (* barrier: re-serialize the shared logs in deterministic order *)
  for stage = 1 to sim.n_stages - 1 do
    for p = 0 to k - 1 do
      let b = ps.ps_log.(stage).(p) in
      let n = Vec.length b in
      let i = ref 0 in
      while !i < n do
        log_access sim (Vec.get b !i) (Vec.get b (!i + 1)) (Vec.get b (!i + 2));
        i := !i + 3
      done;
      Vec.clear b
    done
  done;
  (match sim.ms with
  | Some m -> Array.iter (fun shard -> Metrics.absorb m shard) ps.ps_shards
  | None -> ());
  (* Packet conservation across the merge: the transfer buffers are
     consumed but not cleared by the fan-out, so they still count the
     descriptors that were pending at the top of the cycle.  Nothing
     drops under the gate. *)
  (match sim.mon with
  | Some mon ->
      let transfers = ref 0 in
      Array.iter (fun v -> transfers := !transfers + Vec.length v) sim.t_pkts;
      let applied = Array.fold_left ( + ) 0 ps.ps_applied in
      Monitor.barrier mon ~cycle:now ~transfers:!transfers ~applied ~dropped:0
  | None -> ());
  Array.fill ps.ps_applied 0 k 0;
  Array.iter Vec.clear ps.ps_dbuf;
  for stage = 0 to sim.n_stages - 1 do
    Vec.clear sim.t_pkts.(stage);
    Vec.clear sim.t_descs.(stage)
  done;
  match sim.pf with
  | Some pf -> Prof.record pf Prof.Replay ~t0:t_replay
  | None -> ()

(* --- specialized fast cycle loop (the bare variant) ---

   Selected by [select_loop] when nothing is attached to the run:
   no metrics, no event trace, no fault plan, no monitor, no observer,
   adaptive FIFOs, no starvation guard, and a non-Ideal mode.  Under
   that gate the cycle body collapses:

   - every [match sim.ms / sim.tr / sim.flt / sim.mon with ...] site is
     statically absent instead of a branch per site;
   - all queues are [Logical] (Ideal is excluded), so the FIFO matrix is
     unwrapped once into [int Fifo.t option array array] and the
     per-event [queue] match disappears;
   - adaptive rings never drop a push and Invariant 1 holds fault-free,
     so every drop path is an [assert false], [doomed] stays empty and
     [dup_base] stays [max_int] — ghosts cannot exist, so the per-access
     ghost compare is gone too;
   - the deliver/apply/pop/exec/movement phases are fused into a single
     stage sweep over pre-resolved structures: the unwrapped FIFO
     matrix, each store's backing arrays ([Store.array] is stable:
     remaps move values between arrays, never replace them), each
     access's register id, and the kernel's closure tables.

   Two arms share the machinery.  The sequential arm runs one
   stage-major sweep — apply(s), pop(s), exec(s), movement(s) for s
   ascending — with [log_access] called directly, so its access-log
   order is the generic [exec_phase] order by construction.  Fusing
   movement needs ping-pong transfer buffers: movement(s) writes the
   next cycle's transfers into a shadow buffer for stage s+1 (swapped
   into [sim.t_pkts]/[t_descs] at the end of the sweep, so snapshots
   and variant switches see the generic representation), because
   apply(s+1) — which runs *after* movement(s) in the fused order —
   must consume only the previous cycle's entries.  Order is otherwise
   preserved: each transfer buffer t.(s+1) receives pushes from exactly
   one source stage (s), in pipe-ascending order under both sweeps;
   exits happen only at stage n-1, so the exit digest / collect order
   and the slab freelist order are sweep-invariant; the crossbar claim
   row for stage s+1 is written and read only by movement(s) within a
   cycle ([spawn_dup], the only other reader, needs a fault plan).

   The parallel arm fuses each pipeline's chain into a closed
   per-pipeline closure fanned out on a [Pool.Team] (one kernel clone
   per domain), buffers access-log writes per (stage, pipeline), and
   replays them stage-major/pipe-minor at the cycle barrier — again the
   exact sequential order.  Movement stays in [drive]'s shared suffix
   there (the crossbar steers across pipelines, so it is inherently
   sequential).  The fused interleaving is bit-identical to the generic
   phase order by the PR 6 argument: apply(s)/pop(s)/exec(s) touch only
   stage-s structures of one pipeline, stages are swept ascending, and
   exec at stage s runs after pop at stage s exactly as the generic
   pop-all-stages-then-exec-all-stages does within one cycle. *)

(* Arrivals prefetched in batches: [Psource.next] per admitted packet
   becomes one buffer refill per [fast_chunk] packets.  Only legal when
   the leg can never checkpoint ([track_src] off): the buffer runs the
   source cursor ahead of the machine, which would break the snapshot's
   consumed-count/input-digest contract. *)
let fast_chunk = 64

type fast_state = {
  fs_deliver : int -> unit;
      (* drain the phantom calendar for cycle [now]: straight into the
         rings (sequential arm) or into per-destination buckets the
         chains empty (parallel arm) *)
  fs_body : int -> unit;
      (* the fused apply/pop/exec sweep (plus movement on the
         sequential arm; fan-out, log replay and buffer clears on the
         parallel arm) *)
  fs_moved : bool;
      (* movement is fused into [fs_body]: [drive] must skip the shared
         [movement_phase] (sequential arm only) *)
  mutable fs_dirty : bool;
      (* some index map may hold nonzero access counters: remap
         boundaries must be visited while idle.  Set on every admission,
         cleared when a boundary's [remap_phase] has reset the counters;
         initialized true because a resumed leg restores counters. *)
  fs_chunked : bool;
  fs_buf : Machine.input Vec.t;
  mutable fs_cur : int;
  mutable fs_eof : bool;
  mutable fs_seq : int;               (* seq of the next admitted packet *)
}

let fast_refill fs source =
  Vec.clear fs.fs_buf;
  fs.fs_cur <- 0;
  let n = ref 0 in
  while (not fs.fs_eof) && !n < fast_chunk do
    match Psource.next source with
    | Some i ->
        Vec.push fs.fs_buf i;
        incr n
    | None -> fs.fs_eof <- true
  done

let fast_peek fs source =
  if fs.fs_cur < Vec.length fs.fs_buf then Some (Vec.get fs.fs_buf fs.fs_cur)
  else if fs.fs_eof then None
  else begin
    fast_refill fs source;
    if Vec.length fs.fs_buf = 0 then None else Some (Vec.get fs.fs_buf 0)
  end

(* [arrival_phase] against the prefetch buffer.  No fault plan under the
   gate, so the downed-pipeline skip is gone; seqs come from the local
   counter because the source cursor runs ahead of the machine. *)
let fast_arrival sim fs source now =
  let max_accept = match sim.p.mode with Naive_single -> 1 | _ -> sim.p.k in
  let entry = ref 0 in
  let admitting = ref true in
  while !admitting do
    if !entry >= max_accept then admitting := false
    else
      match fast_peek fs source with
      | Some input when input.Machine.time <= now ->
          fs.fs_cur <- fs.fs_cur + 1;
          let seq = fs.fs_seq in
          fs.fs_seq <- seq + 1;
          let pkt = alloc_packet sim ~seq ~now input.Machine.headers in
          resolve sim now !entry pkt;
          sim.slots.(0).(!entry) <- pkt;
          sim.in_flight <- sim.in_flight + 1;
          incr entry
      | _ -> admitting := false
  done

(* Build the fused cycle body.  Must run *after* a resume has decoded
   the snapshot ([r_queue] replaces the FIFO objects); under the fast
   gate nothing ever replaces them afterwards (only the fault paths do),
   so the unwrapped matrix stays valid for the whole leg. *)
let make_fast_state sim team ~chunked ~consumed =
  let k = sim.p.k and n_stages = sim.n_stages in
  let cols =
    Array.init n_stages (fun s ->
        Array.init k (fun p ->
            match sim.fifos.(s).(p) with
            | Some (Logical f) -> Some f
            | None -> None
            | Some (Per_cell _) -> assert false (* Ideal excluded by the gate *)))
  in
  (* [Store.array] returns the stable backing array: sharding moves cell
     values between arrays, never replaces the arrays. *)
  let n_regs = Array.length sim.config.Config.regs in
  let regs =
    Array.init k (fun p -> Array.init n_regs (fun reg -> Store.array sim.stores.(p) ~reg))
  in
  let acc_reg = Array.map (fun (a : Transform.access) -> a.Transform.reg) sim.accesses in
  let slots = sim.slots in
  let t_pkts = sim.t_pkts and t_descs = sim.t_descs in
  let doomed = sim.doomed in
  let accs_by_stage = sim.accs_by_stage in
  let stateful = sim.stateful_stage in
  let phantoms = uses_phantoms sim in
  let ecn = match sim.p.ecn_threshold with Some t -> t | None -> max_int in
  let deliver, body, moved =
    match team with
    | None ->
        (* Sequential arm: deliveries straight into the rings in calendar
           (drain) order — the generic [deliver_phantoms] order — and one
           stage-major sweep (apply/pop/exec/movement per stage) with
           [log_access] inline. *)
        let deliver_one d =
          (* [doomed] is provably empty under the gate (nothing can
             drop), but the membership test is kept: it is one hash
             probe per delivery, and it turns a violated assumption into
             a visible differential failure instead of silent state
             corruption. *)
          if not (Hashtbl.mem doomed d.d_seq) then
            match cols.(d.d_stage).(d.d_dest) with
            | Some f ->
                ignore
                  (Fifo.push_phantom f ~ring:d.d_ring ~ts:d.d_seq ~key:d.d_seq
                    : [ `Ok | `Dropped ])
            | None -> invalid_arg "phantom destined to a stateless stage"
        in
        let kernel = sim.kernel in
        let exec = kernel.Kernel.exec and stateless = kernel.Kernel.stateless in
        let frame = sim.frame in
        let claimed = sim.claimed in
        let stateless_priority = sim.p.stateless_priority in
        let collect = sim.collect in
        let n_user = sim.config.Config.n_user_fields in
        (* Ping-pong shadows for the transfer buffers: movement(s) fills
           the shadow of stage s+1 while apply(s+1) — later in the same
           sweep — consumes the live buffer; the end-of-sweep swap makes
           the shadows live, so snapshots taken at the cycle boundary
           see the generic representation. *)
        let nx_pkts = Array.init n_stages (fun _ -> Vec.create ()) in
        let nx_descs = Array.init n_stages (fun _ -> Vec.create ()) in
        let maps = sim.maps in
        let body now =
          (* Hoist the slab columns once per cycle: the arrays move only
             on slab growth, and the only allocation site (arrival) runs
             before the body.  Field loads through [sim.sl] cannot be
             CSE'd across the FIFO/kernel calls below, so this saves two
             loads per array touch across the whole sweep. *)
          let sl = sim.sl in
          let fields = sl.Slab.fields in
          let nf = sl.Slab.nf and na = sl.Slab.na in
          let seqs = sl.Slab.seq and gks = sl.Slab.gk in
          let dests = sl.Slab.dest and cells = sl.Slab.cell in
          let dones = sl.Slab.done_ and counted = sl.Slab.counted in
          let times = sl.Slab.time_in and ecns = sl.Slab.ecn in
          frame.Expr.base <- fields;
          frame.Expr.len <- nf;
          (* The crossbar claim matrix resets once per cycle; the
             generic loop does it at the top of [movement_phase], but
             under the gate nothing reads claims between the phases
             ([spawn_dup] needs a fault plan), so resetting at sweep
             start is unobservable. *)
          if sim.claims_dirty then begin
            Array.iter (fun row -> Array.fill row 0 (Array.length row) false) claimed;
            sim.claims_dirty <- false
          end;
          for stage = 0 to n_stages - 1 do
            let colrow = cols.(stage) in
            let srow = slots.(stage) in
            (* apply(stage): one reverse scan (the generic order),
               dispatching by destination directly. *)
            (let pkts = t_pkts.(stage) and descs = t_descs.(stage) in
             let n = Vec.length pkts in
             if n > 0 then begin
               for i = n - 1 downto 0 do
                 let pkt = Vec.unsafe_get pkts i in
                 let desc = Vec.unsafe_get descs i in
                 let dest = (desc lsr 2) land 63 in
                 match desc land 3 with
                 | 1 (* stateful *) -> (
                     let f =
                       match colrow.(dest) with Some f -> f | None -> assert false
                     in
                     let seq = Array.unsafe_get seqs pkt in
                     let pushed =
                       if phantoms then Fifo.insert_data f ~key:seq pkt
                       else
                         match
                           Fifo.push_data f
                             ~ring:((desc lsr 8) land 63)
                             ~ts:((now lsl 22) lor seq)
                             ~key:seq pkt
                         with
                         | `Ok -> `Ok
                         | `Dropped -> `No_phantom
                     in
                     match pushed with
                     | `Ok ->
                         if Fifo.data_length f > ecn then Array.unsafe_set ecns pkt 1
                     | `No_phantom -> assert false (* adaptive + Invariant 1 *))
                 | 2 (* queued *) -> (
                     let f =
                       match colrow.(dest) with Some f -> f | None -> assert false
                     in
                     let seq = Array.unsafe_get seqs pkt in
                     match
                       Fifo.push_data f ~ring:((desc lsr 8) land 63) ~ts:seq ~key:seq pkt
                     with
                     | `Ok -> ()
                     | `Dropped -> assert false (* adaptive rings never drop *))
                 | _ (* stateless *) -> Array.unsafe_set srow dest pkt
               done;
               Vec.clear pkts;
               Vec.clear descs
             end);
            (* pop(stage): only stateful stages have ring columns *)
            if Array.unsafe_get stateful stage then
              for p = 0 to k - 1 do
                if Array.unsafe_get srow p = no_pkt then
                  match colrow.(p) with
                  | Some f -> (
                      match Fifo.take f with
                      | `Data (_, pkt) -> Array.unsafe_set srow p pkt
                      | `Blocked _ | `Empty -> ())
                  | None -> ()
              done;
            (* exec(stage): stage 0 is address resolution, done on
               arrival.  No [dup_base] compare: ghosts need a fault
               plan. *)
            if stage > 0 then begin
              let accs = accs_by_stage.(stage) in
              let n_acc = Array.length accs in
              let st_fn = stateless.(stage) in
              for p = 0 to k - 1 do
                let pkt = Array.unsafe_get srow p in
                if pkt <> no_pkt then begin
                  frame.Expr.off <- pkt * nf;
                  st_fn frame;
                  if n_acc > 0 then begin
                    let regs_p = regs.(p) in
                    let ab = pkt * na in
                    let seq = Array.unsafe_get seqs pkt in
                    for i = 0 to n_acc - 1 do
                      let acc_id = Array.unsafe_get accs i in
                      let reg = Array.unsafe_get acc_reg acc_id in
                      let ai = ab + acc_id in
                      let cell =
                        exec.(acc_id) frame regs_p.(reg) (Array.unsafe_get cells ai)
                      in
                      if cell >= 0 then log_access sim reg cell seq;
                      Array.unsafe_set dones ai 1;
                      (* [release_inflight] inlined against the
                         captures *)
                      if Array.unsafe_get counted ai <> 0 then begin
                        Array.unsafe_set counted ai 0;
                        Index_map.decr_inflight maps.(reg) (Array.unsafe_get cells ai)
                      end
                    done
                  end
                end
              done
            end;
            (* movement(stage): vacate every occupied slot — into the
               shadow buffer of stage+1 or out of the pipeline.  The
               moving packet's own slab state is final (its exec just
               ran; later stages touch other packets), so reading the
               guards here matches the generic all-exec-then-move
               order. *)
            let next = stage + 1 in
            if next = n_stages then
              for p = 0 to k - 1 do
                let pkt = Array.unsafe_get srow p in
                if pkt <> no_pkt then begin
                  Array.unsafe_set srow p no_pkt;
                  let seq = Array.unsafe_get seqs pkt in
                  let time_in = Array.unsafe_get times pkt in
                  let fb = pkt * nf in
                  sim.delivered <- sim.delivered + 1;
                  sim.in_flight <- sim.in_flight - 1;
                  if Array.unsafe_get ecns pkt <> 0 then sim.marked <- sim.marked + 1;
                  if sim.first_exit < 0 then sim.first_exit <- now;
                  sim.last_exit <- now;
                  if collect then begin
                    Vec.push sim.exit_seqs seq;
                    Vec.push sim.exit_headers (Array.sub fields fb n_user);
                    Vec.push sim.exit_lats (now - time_in)
                  end
                  else begin
                    (* Streaming: fold the exit record into the running
                       digest — same feed order as the generic exit. *)
                    let hi = ref sim.ed_hi and lo = ref sim.ed_lo in
                    (let h, l = Hashing.feed_int_halves !hi !lo seq in
                     hi := h;
                     lo := l);
                    (let h, l = Hashing.feed_int_halves !hi !lo (now - time_in) in
                     hi := h;
                     lo := l);
                    for f = 0 to n_user - 1 do
                      let h, l =
                        Hashing.feed_int_halves !hi !lo
                          (Array.unsafe_get fields (fb + f))
                      in
                      hi := h;
                      lo := l
                    done;
                    sim.ed_hi <- !hi;
                    sim.ed_lo <- !lo
                  end;
                  Slab.release sl pkt
                end
              done
            else begin
              let npk = nx_pkts.(next) and nds = nx_descs.(next) in
              let accs = accs_by_stage.(next) in
              let n_qa = Array.length accs in
              let crow = claimed.(next) in
              let next_stateful = Array.unsafe_get stateful next in
              for p = 0 to k - 1 do
                let pkt = Array.unsafe_get srow p in
                if pkt <> no_pkt then begin
                  Array.unsafe_set srow p no_pkt;
                  (* [queued_acc] inlined against the captures: first
                     access at [next] whose guard is not known false. *)
                  let ab = pkt * na in
                  let acc_id = ref (-1) in
                  (let i = ref 0 in
                   while !acc_id < 0 && !i < n_qa do
                     let id = Array.unsafe_get accs !i in
                     if Array.unsafe_get gks (ab + id) <> gk_false then acc_id := id
                     else incr i
                   done);
                  let a = !acc_id in
                  if a >= 0 then begin
                    let ai = ab + a in
                    Vec.push npk pkt;
                    Vec.push nds
                      (pack_transfer ~tag:t_stateful
                         ~dest:(Array.unsafe_get dests ai)
                         ~src:p
                         ~cell:(Array.unsafe_get cells ai))
                  end
                  else if next_stateful && not stateless_priority then begin
                    Vec.push npk pkt;
                    Vec.push nds (pack_transfer ~tag:t_queued ~dest:p ~src:p ~cell:(-1))
                  end
                  else begin
                    let dest =
                      if not (Array.unsafe_get crow p) then p
                      else begin
                        let d = ref (-1) in
                        for q = k - 1 downto 0 do
                          if not (Array.unsafe_get crow q) then d := q
                        done;
                        !d
                      end
                    in
                    assert (dest >= 0);
                    crow.(dest) <- true;
                    sim.claims_dirty <- true;
                    Vec.push npk pkt;
                    Vec.push nds (pack_transfer ~tag:t_stateless ~dest ~src:p ~cell:(-1))
                  end
                end
              done
            end
          done;
          (* Swap: the shadows become the live transfer buffers (the
             consumed live ones, already cleared by apply, become next
             cycle's shadows). *)
          for s = 0 to n_stages - 1 do
            let tp = t_pkts.(s) in
            t_pkts.(s) <- nx_pkts.(s);
            nx_pkts.(s) <- tp;
            let td = t_descs.(s) in
            t_descs.(s) <- nx_descs.(s);
            nx_descs.(s) <- td
          done
        in
        ((fun now -> Channel.drain sim.channel ~now deliver_one), body, true)
    | Some tm ->
        (* Parallel arm: compiled stateful kernels thread match state
           through a captured ref, so each domain needs its own clone
           (domain 0 reuses the sim's own kernel and frame, exactly as
           the generic parallel engine). *)
        let jobs = Pool.Team.size tm in
        let kernels =
          Array.init jobs (fun j ->
              if j = 0 then sim.kernel
              else Kernel.create ~compiled:sim.kernel.Kernel.compiled sim.prog)
        in
        let frames =
          Array.init jobs (fun j -> if j = 0 then sim.frame else Expr.frame_of_array [||])
        in
        let dbuf = Array.init k (fun _ -> Vec.create ()) in
        let logs = Array.init n_stages (fun _ -> Array.init k (fun _ -> Vec.create ())) in
        let chains =
          Array.init k (fun pipe ->
              let kernel = kernels.(pipe mod jobs) and frame = frames.(pipe mod jobs) in
              let exec = kernel.Kernel.exec and stateless = kernel.Kernel.stateless in
              let regs_p = regs.(pipe) in
              let col = Array.init n_stages (fun s -> cols.(s).(pipe)) in
              let logcol = Array.init n_stages (fun s -> logs.(s).(pipe)) in
              let db = dbuf.(pipe) in
              fun now ->
                (* deliver: this pipeline's pre-drained phantom bucket
                   (same defensive [doomed] probe as the sequential
                   arm) *)
                for i = 0 to Vec.length db - 1 do
                  let d = Vec.unsafe_get db i in
                  if not (Hashtbl.mem doomed d.d_seq) then
                    match col.(d.d_stage) with
                    | Some f ->
                        ignore
                          (Fifo.push_phantom f ~ring:d.d_ring ~ts:d.d_seq ~key:d.d_seq
                            : [ `Ok | `Dropped ])
                    | None -> invalid_arg "phantom destined to a stateless stage"
                done;
                (* fused apply(s) -> pop(s) -> exec(s), one stage sweep *)
                for stage = 0 to n_stages - 1 do
                  (let pkts = t_pkts.(stage) and descs = t_descs.(stage) in
                   for i = Vec.length pkts - 1 downto 0 do
                     let desc = Vec.unsafe_get descs i in
                     if (desc lsr 2) land 63 = pipe then begin
                       let pkt = Vec.unsafe_get pkts i in
                       let sl = sim.sl in
                       match desc land 3 with
                       | 1 (* stateful *) -> (
                           let f =
                             match col.(stage) with Some f -> f | None -> assert false
                           in
                           let seq = sl.Slab.seq.(pkt) in
                           let pushed =
                             if phantoms then Fifo.insert_data f ~key:seq pkt
                             else
                               match
                                 Fifo.push_data f
                                   ~ring:((desc lsr 8) land 63)
                                   ~ts:((now lsl 22) lor seq)
                                   ~key:seq pkt
                               with
                               | `Ok -> `Ok
                               | `Dropped -> `No_phantom
                           in
                           match pushed with
                           | `Ok ->
                               if Fifo.data_length f > ecn then sl.Slab.ecn.(pkt) <- 1
                           | `No_phantom -> assert false (* adaptive + Invariant 1 *))
                       | 2 (* queued *) -> (
                           let f =
                             match col.(stage) with Some f -> f | None -> assert false
                           in
                           let seq = sl.Slab.seq.(pkt) in
                           match
                             Fifo.push_data f
                               ~ring:((desc lsr 8) land 63)
                               ~ts:seq ~key:seq pkt
                           with
                           | `Ok -> ()
                           | `Dropped -> assert false (* adaptive rings never drop *))
                       | _ (* stateless *) ->
                           assert (slots.(stage).(pipe) = no_pkt);
                           slots.(stage).(pipe) <- pkt
                     end
                   done);
                  (match col.(stage) with
                  | Some f when slots.(stage).(pipe) = no_pkt -> (
                      match Fifo.take f with
                      | `Data (_, pkt) -> slots.(stage).(pipe) <- pkt
                      | `Blocked _ | `Empty -> ())
                  | _ -> ());
                  if stage > 0 then begin
                    let pkt = slots.(stage).(pipe) in
                    if pkt <> no_pkt then begin
                      let sl = sim.sl in
                      frame.Expr.base <- sl.Slab.fields;
                      frame.Expr.off <- pkt * sl.Slab.nf;
                      frame.Expr.len <- sl.Slab.nf;
                      stateless.(stage) frame;
                      let accs = accs_by_stage.(stage) in
                      let n = Array.length accs in
                      if n > 0 then begin
                        let logbuf = logcol.(stage) in
                        let ab = pkt * sl.Slab.na in
                        let seq = sl.Slab.seq.(pkt) in
                        for i = 0 to n - 1 do
                          let acc_id = Array.unsafe_get accs i in
                          let reg = Array.unsafe_get acc_reg acc_id in
                          let cell =
                            exec.(acc_id) frame regs_p.(reg) sl.Slab.cell.(ab + acc_id)
                          in
                          if cell >= 0 then begin
                            Vec.push logbuf reg;
                            Vec.push logbuf cell;
                            Vec.push logbuf seq
                          end;
                          sl.Slab.done_.(ab + acc_id) <- 1;
                          release_inflight sim pkt acc_id
                        done
                      end
                    end
                  end
                done)
        in
        let bucket d = Vec.push dbuf.(d.d_dest) d in
        (* barrier: replay the buffered logs stage-major/pipe-minor —
           the sequential [exec_phase] order — so the shared access
           log (and with it result tables, digests and snapshot bytes)
           is loop-invariant *)
        let replay () =
          for stage = 1 to n_stages - 1 do
            for p = 0 to k - 1 do
              let b = logs.(stage).(p) in
              let n = Vec.length b in
              let i = ref 0 in
              while !i < n do
                log_access sim (Vec.unsafe_get b !i)
                  (Vec.unsafe_get b (!i + 1))
                  (Vec.unsafe_get b (!i + 2));
                i := !i + 3
              done;
              Vec.clear b
            done
          done;
          Array.iter Vec.clear dbuf;
          for stage = 0 to n_stages - 1 do
            Vec.clear t_pkts.(stage);
            Vec.clear t_descs.(stage)
          done
        in
        let body =
          match sim.pf with
          | None ->
              fun now ->
                Pool.Team.run tm (fun j ->
                    let p = ref j in
                    while !p < k do
                      chains.(!p) now;
                      p := !p + jobs
                    done);
                replay ()
          | Some pf ->
              (* Sampled hooks at the fan-out edges only (the fused
                 chains run untouched): per-domain end marks give the
                 same compute/barrier attribution as the generic
                 parallel engine. *)
              let marks = Array.make jobs 0 in
              fun now ->
                let t_fan = Prof.now () in
                Pool.Team.run tm (fun j ->
                    let p = ref j in
                    while !p < k do
                      chains.(!p) now;
                      p := !p + jobs
                    done;
                    marks.(j) <- Prof.now ());
                let t_join = Prof.now () in
                for j = 0 to jobs - 1 do
                  let mark = marks.(j) in
                  Prof.add pf ~domain:j Prof.Compute ~ts:t_fan ~dur:(mark - t_fan);
                  Prof.add pf ~domain:j Prof.Barrier ~ts:mark ~dur:(t_join - mark)
                done;
                let t0 = Prof.now () in
                replay ();
                Prof.record pf Prof.Replay ~t0
        in
        ((fun now -> Channel.drain sim.channel ~now bucket), body, false)
  in
  {
    fs_deliver = deliver;
    fs_body = body;
    fs_moved = moved;
    fs_dirty = true;
    fs_chunked = chunked;
    fs_buf = Vec.create ();
    fs_cur = 0;
    fs_eof = false;
    fs_seq = consumed;
  }

(* One fast cycle: drain the calendar, admit arrivals (the only slab
   allocation — the arrays may move, so the body re-reads [sim.sl] after
   it), run the fused sweep.  The sequential sweep includes movement
   ([fs_moved]); remap stays in [drive]'s shared suffix. *)
let fast_cycle sim fs now source st =
  fs.fs_deliver now;
  let before = sim.in_flight in
  if fs.fs_chunked then fast_arrival sim fs source now
  else arrival_phase sim now source st;
  if sim.in_flight > before then fs.fs_dirty <- true;
  fs.fs_body now

(* The sampled-profiling twin of [fast_cycle]: three spans per cycle at
   the edges the fast loop already has — calendar drain, admission, and
   the fused sweep — never per packet or per stage.  A separate
   function so the unprofiled loop body carries no profiler branch. *)
(* Adjacent spans share their boundary timestamp (4 clock reads per
   cycle, not 6) — the clock stub dominates sampled-mode overhead on
   this loop. *)
let fast_cycle_prof sim pf fs now source st =
  let t0 = Prof.now () in
  fs.fs_deliver now;
  let t1 = Prof.now () in
  Prof.add pf Prof.Deliver ~ts:t0 ~dur:(t1 - t0);
  let before = sim.in_flight in
  if fs.fs_chunked then fast_arrival sim fs source now
  else arrival_phase sim now source st;
  if sim.in_flight > before then fs.fs_dirty <- true;
  let t2 = Prof.now () in
  Prof.add pf Prof.Source ~ts:t1 ~dur:(t2 - t1);
  fs.fs_body now;
  let t3 = Prof.now () in
  Prof.add pf Prof.Sweep ~ts:t2 ~dur:(t3 - t2)


(* --- snapshots (mp5-snap/1) --- *)

let snap_magic = "mp5-snap/1"
let snapshot_magic = snap_magic

let mode_tag = function
  | Mp5 -> 0
  | Static_shard -> 1
  | No_d4 -> 2
  | Naive_single -> 3
  | Ideal -> 4

let mode_of_tag = function
  | 0 -> Mp5
  | 1 -> Static_shard
  | 2 -> No_d4
  | 3 -> Naive_single
  | 4 -> Ideal
  | t -> failwith (Printf.sprintf "snapshot: unknown mode %d" t)

let w_params b (p : params) =
  Binio.w_int b p.k;
  Binio.w_int b (mode_tag p.mode);
  Binio.w_int b p.fifo_capacity;
  Binio.w_bool b p.adaptive_fifos;
  Binio.w_int b p.remap_period;
  (match p.shard_init with
  | `Round_robin -> Binio.w_int b 0
  | `Blocked -> Binio.w_int b 1
  | `Random seed ->
      Binio.w_int b 2;
      Binio.w_int b seed);
  Binio.w_bool b p.remap_noise_gate;
  Binio.w_bool b p.stateless_priority;
  Binio.w_opt_int b p.starvation_threshold;
  Binio.w_opt_int b p.ecn_threshold

let r_params r =
  let k = Binio.r_int r in
  let mode = mode_of_tag (Binio.r_int r) in
  let fifo_capacity = Binio.r_int r in
  let adaptive_fifos = Binio.r_bool r in
  let remap_period = Binio.r_int r in
  let shard_init =
    match Binio.r_int r with
    | 0 -> `Round_robin
    | 1 -> `Blocked
    | 2 -> `Random (Binio.r_int r)
    | t -> failwith (Printf.sprintf "snapshot: unknown shard placement %d" t)
  in
  let remap_noise_gate = Binio.r_bool r in
  let stateless_priority = Binio.r_bool r in
  let starvation_threshold = Binio.r_opt_int r in
  let ecn_threshold = Binio.r_opt_int r in
  {
    k;
    mode;
    fifo_capacity;
    adaptive_fifos;
    remap_period;
    shard_init;
    remap_noise_gate;
    stateless_priority;
    starvation_threshold;
    ecn_threshold;
  }

(* Structural digest of the transformed program: resuming under a
   different program would silently misinterpret every serialized cell
   and access id, so the snapshot pins the machine shape its state
   belongs to. *)
let prog_digest (prog : Transform.t) =
  let config = prog.Transform.config in
  let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
  let feed x =
    let h, l = Hashing.feed_int_halves !hi !lo x in
    hi := h;
    lo := l
  in
  feed (Array.length config.Config.stages);
  feed (Array.length config.Config.fields);
  feed config.Config.n_user_fields;
  feed (Array.length config.Config.regs);
  Array.iter (fun (reg : Config.reg) -> feed reg.Config.size) config.Config.regs;
  feed (Array.length prog.Transform.accesses);
  Array.iter
    (fun (a : Transform.access) ->
      feed a.Transform.stage;
      feed a.Transform.reg)
    prog.Transform.accesses;
  Array.iter (fun s -> feed (if s then 1 else 0)) prog.Transform.sharded;
  Hashing.finish (!hi, !lo)

(* The wire layout of a packet is unchanged from the boxed-record era:
   guard state was already encoded 0/1/2 (now the [gk_*] constants
   verbatim), so slab-era snapshots stay byte-identical. *)
let w_packet b sim pkt =
  let sl = sim.sl in
  Binio.w_int b sl.Slab.seq.(pkt);
  Binio.w_int b sl.Slab.time_in.(pkt);
  Binio.w_bool b (sl.Slab.ecn.(pkt) <> 0);
  Binio.w_int_sub b sl.Slab.fields ~pos:(pkt * sl.Slab.nf) ~len:sl.Slab.nf;
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    Binio.w_int b sl.Slab.gk.(ab + i);
    Binio.w_int b sl.Slab.cell.(ab + i);
    Binio.w_int b sl.Slab.dest.(ab + i);
    Binio.w_bool b (sl.Slab.done_.(ab + i) <> 0);
    Binio.w_bool b (sl.Slab.counted.(ab + i) <> 0)
  done

let r_packet r sim =
  let seq = Binio.r_int r in
  let time_in = Binio.r_int r in
  let ecn = Binio.r_bool r in
  let pkt = Slab.alloc sim.sl in
  let sl = sim.sl in
  Binio.r_int_sub_into r sl.Slab.fields ~pos:(pkt * sl.Slab.nf) ~len:sl.Slab.nf
    ~mismatch:"snapshot: packet field count does not match the program";
  sl.Slab.seq.(pkt) <- seq;
  sl.Slab.time_in.(pkt) <- time_in;
  sl.Slab.ecn.(pkt) <- (if ecn then 1 else 0);
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    (* Explicit order: each component is a separate sequenced read. *)
    let gk = Binio.r_int r in
    if gk <> gk_unknown && gk <> gk_false && gk <> gk_true then
      failwith (Printf.sprintf "snapshot: unknown guard state %d" gk);
    sl.Slab.gk.(ab + i) <- gk;
    sl.Slab.cell.(ab + i) <- Binio.r_int r;
    sl.Slab.dest.(ab + i) <- Binio.r_int r;
    sl.Slab.done_.(ab + i) <- (if Binio.r_bool r then 1 else 0);
    sl.Slab.counted.(ab + i) <- (if Binio.r_bool r then 1 else 0)
  done;
  pkt

let w_fifo b sim (f : int Fifo.t) =
  let d = Fifo.dump f in
  Binio.w_int b d.Fifo.d_high_water;
  Binio.w_int b (Array.length d.Fifo.d_rings);
  Array.iter
    (fun (rd : int Fifo.ring_dump) ->
      Binio.w_int b rd.Fifo.rd_capacity;
      Binio.w_int b rd.Fifo.rd_head_seq;
      Binio.w_int b (List.length rd.Fifo.rd_entries);
      List.iter
        (fun (ts, key, cancelled, data) ->
          Binio.w_int b ts;
          Binio.w_int b key;
          Binio.w_bool b cancelled;
          match data with
          | None -> Binio.w_bool b false
          | Some pkt ->
              Binio.w_bool b true;
              w_packet b sim pkt)
        rd.Fifo.rd_entries)
    d.Fifo.d_rings

let r_fifo r sim =
  let d_high_water = Binio.r_int r in
  let n = Binio.r_int r in
  if n <> sim.p.k then failwith "snapshot: FIFO ring count does not match k";
  let read_ring () =
    let rd_capacity = Binio.r_int r in
    let rd_head_seq = Binio.r_int r in
    let n_entries = Binio.r_int r in
    let rec entries n acc =
      if n = 0 then List.rev acc
      else begin
        let ts = Binio.r_int r in
        let key = Binio.r_int r in
        let cancelled = Binio.r_bool r in
        let data = if Binio.r_bool r then Some (r_packet r sim) else None in
        entries (n - 1) ((ts, key, cancelled, data) :: acc)
      end
    in
    { Fifo.rd_capacity; rd_head_seq; rd_entries = entries n_entries [] }
  in
  let d_rings = Array.make n (read_ring ()) in
  for i = 1 to n - 1 do
    d_rings.(i) <- read_ring ()
  done;
  Fifo.restore ~adaptive:sim.p.adaptive_fifos { Fifo.d_rings; d_high_water }

let w_queue b sim q =
  match q with
  | None -> Binio.w_int b 0
  | Some (Logical f) ->
      Binio.w_int b 1;
      w_fifo b sim f
  | Some (Per_cell pc) ->
      Binio.w_int b 2;
      let cells =
        Hashtbl.fold (fun c f acc -> (c, f) :: acc) pc.pc_cells []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Binio.w_int b (List.length cells);
      List.iter
        (fun (c, f) ->
          Binio.w_int b c;
          w_fifo b sim f)
        cells;
      let ready =
        Hashtbl.fold (fun c () acc -> c :: acc) pc.pc_ready [] |> List.sort compare
      in
      Binio.w_int_array b (Array.of_list ready);
      Binio.w_int b pc.pc_high

let r_queue r sim stage pipe =
  let kind = Binio.r_int r in
  match (kind, sim.fifos.(stage).(pipe)) with
  | 0, None -> ()
  | 1, Some (Logical _) -> sim.fifos.(stage).(pipe) <- Some (Logical (r_fifo r sim))
  | 2, Some (Per_cell _) ->
      let n = Binio.r_int r in
      let pc =
        { pc_cells = Hashtbl.create (max 8 n); pc_ready = Hashtbl.create (max 8 n); pc_high = 0 }
      in
      for _ = 1 to n do
        let c = Binio.r_int r in
        Hashtbl.replace pc.pc_cells c (r_fifo r sim)
      done;
      Array.iter (fun c -> Hashtbl.replace pc.pc_ready c ()) (Binio.r_int_array r);
      pc.pc_high <- Binio.r_int r;
      sim.fifos.(stage).(pipe) <- Some (Per_cell pc)
  | _ ->
      failwith
        (Printf.sprintf "snapshot: queue kind %d at stage %d pipe %d does not match the machine"
           kind stage pipe)

let w_plan b (plan : Fault.plan) =
  Binio.w_int b plan.Fault.seed;
  Binio.w_int b (List.length plan.Fault.events);
  List.iter
    (fun (e : Fault.event) ->
      Binio.w_int b e.Fault.from_;
      Binio.w_int b e.Fault.until_;
      match e.Fault.kind with
      | Fault.Pipe_down p ->
          Binio.w_int b 0;
          Binio.w_int b p
      | Fault.Pipe_up p ->
          Binio.w_int b 1;
          Binio.w_int b p
      | Fault.Fifo_loss { stage; pipe } ->
          Binio.w_int b 2;
          Binio.w_int b stage;
          Binio.w_int b pipe
      | Fault.Stall { stage; pipe } ->
          Binio.w_int b 3;
          Binio.w_int b stage;
          Binio.w_int b pipe
      | Fault.Xbar_drop p ->
          Binio.w_int b 4;
          Binio.w_i64 b (Int64.bits_of_float p)
      | Fault.Xbar_dup p ->
          Binio.w_int b 5;
          Binio.w_i64 b (Int64.bits_of_float p)
      | Fault.Phantom_delay e ->
          Binio.w_int b 6;
          Binio.w_int b e)
    plan.Fault.events

let r_plan r =
  let seed = Binio.r_int r in
  let n = Binio.r_int r in
  let rec events n acc =
    if n = 0 then List.rev acc
    else begin
      let from_ = Binio.r_int r in
      let until_ = Binio.r_int r in
      let kind =
        match Binio.r_int r with
        | 0 -> Fault.Pipe_down (Binio.r_int r)
        | 1 -> Fault.Pipe_up (Binio.r_int r)
        | 2 ->
            let stage = Binio.r_int r in
            let pipe = Binio.r_int r in
            Fault.Fifo_loss { stage; pipe }
        | 3 ->
            let stage = Binio.r_int r in
            let pipe = Binio.r_int r in
            Fault.Stall { stage; pipe }
        | 4 -> Fault.Xbar_drop (Int64.float_of_bits (Binio.r_i64 r))
        | 5 -> Fault.Xbar_dup (Int64.float_of_bits (Binio.r_i64 r))
        | 6 -> Fault.Phantom_delay (Binio.r_int r)
        | t -> failwith (Printf.sprintf "snapshot: unknown fault kind %d" t)
      in
      events (n - 1) ({ Fault.from_; until_; kind } :: acc)
    end
  in
  { Fault.seed; events = events n [] }

(* In-flight packets live in exactly three places at a cycle boundary:
   stage slots (all empty — the movement phase just ran), FIFO data
   entries, and the pending transfer buffers.  The same census the
   monitor takes, used to cross-check a decoded snapshot. *)
let count_in_flight sim =
  let counted = ref 0 in
  Array.iter
    (fun row -> Array.iter (fun pkt -> if pkt <> no_pkt then incr counted) row)
    sim.slots;
  Array.iter
    (fun row ->
      Array.iter
        (function
          | Some (Logical f) -> counted := !counted + Fifo.data_length f
          | Some (Per_cell pc) ->
              Hashtbl.iter (fun _ f -> counted := !counted + Fifo.data_length f) pc.pc_cells
          | None -> ())
        row)
    sim.fifos;
  Array.iter (fun v -> counted := !counted + Vec.length v) sim.t_pkts;
  !counted

(* Serialize the machine at a top-of-cycle boundary.  Slots are not
   serialized: the movement phase empties every one of them each cycle,
   so at the boundary all in-flight packets sit in FIFOs or transfer
   buffers.  [st.now] is the next cycle to visit, so resuming replays
   that cycle in full — bit-identically to the uninterrupted run. *)
let encode_into b sim st source =
  Binio.w_tag b 1;
  w_params b sim.p;
  Binio.w_tag b 2;
  Binio.w_int b (prog_digest sim.prog);
  Binio.w_tag b 3;
  Binio.w_int b st.now;
  Binio.w_int b st.first_arrival;
  Binio.w_int b st.last_score;
  Binio.w_int b st.last_progress_t;
  Binio.w_int b sim.delivered;
  Binio.w_int b sim.dropped;
  Binio.w_int b sim.dropped_stateless;
  Binio.w_int b sim.marked;
  Binio.w_int b sim.in_flight;
  Binio.w_int b sim.first_exit;
  Binio.w_int b sim.last_exit;
  Binio.w_int b sim.dup_base;
  Binio.w_int b sim.dup_next;
  Binio.w_tag b 4;
  Binio.w_int b (Psource.consumed source);
  Binio.w_int b (Psource.last_time source);
  Binio.w_int b st.sd_hi;
  Binio.w_int b st.sd_lo;
  Binio.w_tag b 5;
  (match (sim.fplan, sim.flt) with
  | Some plan, Some f ->
      Binio.w_bool b true;
      w_plan b plan;
      let saved = Fault.save f in
      Binio.w_int b (Array.length saved.Fault.sv_rng);
      Array.iter (fun w -> Binio.w_i64 b w) saved.Fault.sv_rng;
      Binio.w_int b saved.Fault.sv_next_i;
      Binio.w_int_array b (Array.of_list saved.Fault.sv_active)
  | _ -> Binio.w_bool b false);
  Binio.w_tag b 6;
  (match sim.ms with
  | Some m ->
      Binio.w_bool b true;
      Binio.w_int_array b (Metrics.dump m)
  | None -> Binio.w_bool b false);
  Binio.w_tag b 7;
  for p = 0 to sim.p.k - 1 do
    for reg = 0 to Array.length sim.config.Config.regs - 1 do
      Binio.w_int_array b (Store.array sim.stores.(p) ~reg)
    done
  done;
  Binio.w_tag b 8;
  Array.iter (Index_map.w_state b) sim.maps;
  Binio.w_tag b 9;
  for s = 0 to sim.n_stages - 1 do
    for p = 0 to sim.p.k - 1 do
      w_queue b sim sim.fifos.(s).(p)
    done
  done;
  Binio.w_tag b 10;
  for s = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(s) and descs = sim.t_descs.(s) in
    Binio.w_int b (Vec.length pkts);
    for i = 0 to Vec.length pkts - 1 do
      Binio.w_int b (Vec.get descs i);
      w_packet b sim (Vec.get pkts i)
    done
  done;
  Binio.w_tag b 11;
  let pending = Channel.dump sim.channel in
  Binio.w_int b (List.length pending);
  List.iter
    (fun (at, d) ->
      Binio.w_int b at;
      Binio.w_int b d.d_seq;
      Binio.w_int b d.d_stage;
      Binio.w_int b d.d_dest;
      Binio.w_int b d.d_ring;
      Binio.w_int b d.d_cell)
    pending;
  Binio.w_tag b 12;
  (* Doomed seqs matter only while a pending delivery can still look one
     up, so the set is pruned to the channel's contents — this is also
     what keeps a multi-leg run's memory bounded: each leg restarts with
     only the live residue of the table. *)
  let doomed =
    List.filter_map
      (fun (_, d) -> if Hashtbl.mem sim.doomed d.d_seq then Some d.d_seq else None)
      pending
    |> List.sort_uniq compare
  in
  Binio.w_int_array b (Array.of_list doomed);
  Binio.w_tag b 13;
  Array.iter (fun row -> Binio.w_int_array b row) sim.hw_key;
  Array.iter (fun row -> Binio.w_int_array b row) sim.hw_since;
  (* Claims persist across the boundary: [spawn_dup] reads them during
     the next apply phase. *)
  Array.iter
    (fun row ->
      Binio.w_int b (Array.length row);
      Array.iter (fun c -> Binio.w_int b (if c then 1 else 0)) row)
    sim.claimed;
  Binio.w_bool b sim.claims_dirty;
  Binio.w_tag b 14;
  Binio.w_int b sim.ed_hi;
  Binio.w_int b sim.ed_lo;
  Binio.w_int b (Vec.length sim.log_keys);
  for i = 0 to Vec.length sim.log_keys - 1 do
    Binio.w_int b (Vec.get sim.log_keys i);
    Binio.w_int b (Vec.get sim.dig_hi i);
    Binio.w_int b (Vec.get sim.dig_lo i)
  done;
  Binio.w_tag b 15

let encode sim st source =
  let b = Binio.writer () in
  encode_into b sim st source;
  Binio.to_string ~magic:snap_magic b

(* --- the cycle loop, shared by [run], [run_source] and [resume] --- *)

let drive ?team ?(loop = Auto) sim st source ~observer ~checkpoint_every ~on_checkpoint
    ~cycle_budget ~heartbeat ~stop =
  let params = sim.p in
  (* Variant selection, once per leg.  [`Fast_*] is the bare loop
     (select_loop's gate guarantees nothing is attached that could drop
     a packet or observe mid-cycle state); [`Generic_par] is the PR 6
     parallel engine behind its own gate — fault plans, event traces,
     observers, bounded rings and the starvation guard all fall back to
     the sequential generic arm, byte for byte. *)
  let jobs = match team with Some tm -> Pool.Team.size tm | None -> 1 in
  let choice =
    select_loop ~loop ~jobs ~metrics:(Option.is_some sim.ms)
      ~events:(Option.is_some sim.tr) ~fault:(Option.is_some sim.flt)
      ~monitor:(Option.is_some sim.mon) ~observer:(Option.is_some observer)
      ~prof:(Option.map Prof.mode sim.pf) params
  in
  let fstate =
    match choice with
    | `Fast_seq | `Fast_par ->
        let team = if choice = `Fast_par then team else None in
        (* Chunked admission only when this leg can never checkpoint:
           [track_src] is armed exactly when it can ([checkpoint_every]
           or [cycle_budget] on [run_source], always on [resume]). *)
        Some
          (make_fast_state sim team ~chunked:(not st.track_src)
             ~consumed:(Psource.consumed source))
    | _ -> None
  in
  let pstate =
    match (choice, team) with
    | `Generic_par, Some tm -> Some (make_par_state sim tm)
    | _ -> None
  in
  let has_next () =
    match fstate with
    | Some fs when fs.fs_chunked -> (
        match fast_peek fs source with Some _ -> true | None -> false)
    | _ -> ( match Psource.peek source with Some _ -> true | None -> false)
  in
  let next_arrival_time () =
    match fstate with
    | Some fs when fs.fs_chunked -> (
        match fast_peek fs source with Some i -> i.Machine.time | None -> assert false)
    | _ -> ( match Psource.peek source with Some i -> i.Machine.time | None -> assert false)
  in
  let suspended = ref None in
  let running = ref true in
  (match sim.pf with Some pf -> Prof.enter pf | None -> ());
  while !running && (sim.in_flight > 0 || has_next ()) do
    let pause =
      (match cycle_budget with Some budget -> st.visited >= budget | None -> false)
      || (match stop with Some r -> !r | None -> false)
    in
    if pause then begin
      (* Pause at the cycle boundary: nothing of cycle [st.now] has
         run yet, so the snapshot resumes it from the top.  The [stop]
         flag — set by the CLI's SIGINT/SIGTERM handler — lands here
         too: a graceful shutdown is an externally requested
         suspension, flushed by the caller as one final snapshot. *)
      (match sim.pf with
      | None -> suspended := Some (encode sim st source)
      | Some pf ->
          let t0 = Prof.now () in
          suspended := Some (encode sim st source);
          Prof.record pf Prof.Checkpoint ~t0;
          Prof.instant pf Prof.Checkpoint);
      running := false
    end
    else begin
        let t = st.now in
        (match fstate with
        | Some fs -> (
            match sim.pf with
            | None -> fast_cycle sim fs t source st
            | Some pf -> fast_cycle_prof sim pf fs t source st)
        | None -> (
            match pstate with
            | Some ps -> par_cycle sim ps t source st
            | None -> (
                (match sim.mon with
                | Some mon when Monitor.due mon ~now:t -> monitor_phase sim mon t
                | _ -> ());
                match sim.pf with
                | None ->
                    (match sim.flt with Some f -> fault_edges sim f t | None -> ());
                    (match sim.ms with Some m -> Metrics.on_cycle m | None -> ());
                    deliver_phantoms sim t;
                    apply_transfers sim t;
                    arrival_phase sim t source st;
                    pop_phase sim t;
                    (match sim.ms with Some m -> metrics_sweep sim m | None -> ());
                    observe sim t observer;
                    exec_phase sim t
                | Some pf ->
                    (* Full-span arm: the generic phase structure is the
                       only place the apply/pop/exec split exists, so
                       each phase call gets its own span.  (A sampled
                       profile on the generic loop takes this arm too —
                       the spans are per-cycle either way.) *)
                    (match sim.flt with
                    | Some f ->
                        if Fault.next_edge f <= t then Prof.instant pf Prof.Fault;
                        fault_edges sim f t
                    | None -> ());
                    (match sim.ms with Some m -> Metrics.on_cycle m | None -> ());
                    let t0 = Prof.now () in
                    deliver_phantoms sim t;
                    Prof.record pf Prof.Deliver ~t0;
                    let t0 = Prof.now () in
                    apply_transfers sim t;
                    Prof.record pf Prof.Apply ~t0;
                    let t0 = Prof.now () in
                    arrival_phase sim t source st;
                    Prof.record pf Prof.Source ~t0;
                    let t0 = Prof.now () in
                    pop_phase sim t;
                    Prof.record pf Prof.Pop ~t0;
                    (match sim.ms with
                    | Some m ->
                        let t0 = Prof.now () in
                        metrics_sweep sim m;
                        Prof.record pf Prof.Sweep ~t0
                    | None -> ());
                    observe sim t observer;
                    let t0 = Prof.now () in
                    exec_phase sim t;
                    Prof.record pf Prof.Exec ~t0)));
        (match fstate with
        | Some fs when fs.fs_moved -> () (* fused into the sweep *)
        | _ -> (
            match sim.pf with
            | None -> movement_phase sim t
            | Some pf ->
                let t0 = Prof.now () in
                movement_phase sim t;
                Prof.record pf Prof.Movement ~t0));
        if
          params.remap_period > 0 && t > st.first_arrival
          && (t - st.first_arrival) mod params.remap_period = 0
        then begin
          (match sim.pf with
          | None -> remap_phase sim t
          | Some pf ->
              let t0 = Prof.now () in
              remap_phase sim t;
              Prof.record pf Prof.Remap ~t0;
              Prof.instant pf Prof.Remap;
              (* remap boundaries are the profiler's epoch marks: GC
                 counters are sampled here, never per cycle *)
              Prof.gc_sample pf);
          (* The boundary reset every (non-Ideal) counter; until the
             next admission, idle boundaries are provably no-ops. *)
          match fstate with Some fs -> fs.fs_dirty <- false | None -> ()
        end;
        (* Progress guard against simulator deadlock bugs.  Chunked
           admission runs the source cursor ahead of the machine, so
           count admitted packets instead of consumed ones there. *)
        let admitted =
          match fstate with
          | Some fs when fs.fs_chunked -> fs.fs_seq
          | _ -> Psource.consumed source
        in
        let score = sim.delivered + sim.dropped + admitted in
        if score > st.last_score then begin
          st.last_score <- score;
          st.last_progress_t <- t
        end
        else if t - st.last_progress_t > 200_000 then
          failwith "Sim.run: no progress for 200000 cycles (deadlock?)";
        (* Idle fast-forward: with nothing in flight the switch is inert,
           so jump to the next event — the next arrival, the next phantom
           delivery (deliveries of doomed packets, drained as no-ops), or
           the next remap boundary (a remap can move cells even while
           idle, so boundaries must still be visited to keep results
           bit-identical with the cycle-by-cycle loop).

           The fast variant generalizes this to a whole-machine
           quiescence jump: with the access counters known clean
           ([fs_dirty] off — no admission since the last boundary reset
           them), an idle remap boundary is provably a no-op
           ([Sharding.remap_step] moves nothing when every counter is
           zero, and [Index_map.reset_counts] on zeros is the identity;
           Ideal, whose packer reads cumulative counts, is excluded from
           the gate), so the jump goes straight to the next arrival.
           The phantom-calendar bound still applies in both variants —
           under the fast gate the calendar is provably empty at
           in-flight 0 (nothing drops, so every pending delivery belongs
           to a live packet), but the bound is two reads per idle jump
           and keeps a violated assumption bit-visible. *)
        (if sim.in_flight > 0 || not (has_next ()) then st.now <- t + 1
         else begin
           let arrival = next_arrival_time () in
           let next = ref (max (t + 1) arrival) in
           (match Channel.next_due sim.channel with
           | Some d -> next := min !next (max (t + 1) d)
           | None -> ());
           let skip_boundaries =
             match fstate with Some fs -> not fs.fs_dirty | None -> false
           in
           if params.remap_period > 0 && not skip_boundaries then begin
             let period = params.remap_period in
             let boundary = t + period - ((t - st.first_arrival) mod period) in
             next := min !next boundary
           end;
           (* Fault edges change machine state even while idle (a pipeline
              coming back up, a window opening), so they bound the jump. *)
           (match sim.flt with
           | Some f ->
               let e = Fault.next_edge f in
               if e < max_int then next := min !next (max (t + 1) e)
           | None -> ());
           st.now <- !next
         end);
        st.visited <- st.visited + 1;
        (match (checkpoint_every, on_checkpoint) with
        | Some n, Some emit when st.visited mod n = 0 -> (
            match sim.pf with
            | None -> emit ~cycle:st.now (encode sim st source)
            | Some pf ->
                let t0 = Prof.now () in
                let snap = encode sim st source in
                Prof.record pf Prof.Checkpoint ~t0;
                Prof.instant pf Prof.Checkpoint;
                emit ~cycle:st.now snap)
        | _ -> ());
        (* Liveness beat for an external watchdog: called every
           [every] visited cycles, after the checkpoint emit so a beat
           never precedes the checkpoint of the same cycle. *)
        (match heartbeat with
        | Some (every, beat) when st.visited mod every = 0 -> beat ~cycle:st.now
        | _ -> ())
    end
  done;
  (match sim.pf with Some pf -> Prof.leave pf | None -> ());
  match !suspended with
  | Some snap -> `Suspended snap
  | None ->
      (* The loop ends as soon as nothing is in flight, which can leave
         phantom deliveries still pending in the channel — all of them
         for packets dropped upstream (a live packet keeps the loop
         running past every delivery it scheduled).  Drain them into the
         suppressed-delivery accounting so phantom conservation holds in
         the snapshot. *)
      (match (sim.ms, sim.tr) with
      | None, None -> ()
      | _ ->
          let rec flush () =
            match Channel.next_due sim.channel with
            | None -> ()
            | Some at ->
                Channel.drain sim.channel ~now:at (fun d ->
                    (match sim.ms with Some m -> Metrics.phantom_doomed m | None -> ());
                    match sim.tr with
                    | Some tr ->
                        Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:at ~seq:d.d_seq
                          ~stage:d.d_stage ~pipe:d.d_dest ~aux:1
                    | None -> ());
                flush ()
          in
          flush ());
      (* One final full check after the drain, so a run that ends between
         epochs is still verified in its terminal state. *)
      (match sim.mon with Some mon -> monitor_phase sim mon st.now | None -> ());
      `Done

let fresh_loop_state ~start ~track_src =
  {
    now = start;
    first_arrival = start;
    last_score = 0;
    last_progress_t = start;
    visited = 0;
    sd_hi = Hashing.fnv_offset_hi;
    sd_lo = Hashing.fnv_offset_lo;
    track_src;
  }

let run ?team ?loop ?observer ?metrics ?events ?fault ?monitor ?prof ?(compiled = true)
    params prog trace =
  if Array.length trace = 0 then invalid_arg "Sim.run: empty trace";
  let source = Psource.of_array trace in
  let sim = create ~compiled ~collect:true ?metrics ?events ?fault ?monitor ?prof params prog in
  (match sim.flt with
  | Some _ ->
      sim.dup_base <- Array.length trace;
      sim.dup_next <- Array.length trace
  | None -> ());
  let st = fresh_loop_state ~start:trace.(0).Machine.time ~track_src:false in
  (match
     drive ?team ?loop sim st source ~observer ~checkpoint_every:None ~on_checkpoint:None
       ~cycle_budget:None ~heartbeat:None ~stop:None
   with
  | `Suspended _ -> assert false
  | `Done -> ());
  let first_arrival = st.first_arrival in
  let last_arrival = trace.(Array.length trace - 1).Machine.time in
  let input_span = last_arrival - first_arrival + 1 in
  let n = Array.length trace in
  let output_span = if sim.first_exit < 0 then 1 else sim.last_exit - sim.first_exit + 1 in
  let normalized_throughput =
    if sim.delivered = 0 then 0.0
    else
      min 1.0
        (float_of_int sim.delivered *. float_of_int input_span
        /. (float_of_int n *. float_of_int output_span))
  in
  (* Unpack the int-keyed Vec access log into the result's
     (reg, cell) -> seq list table; Vec push order is chronological, so
     no reversal is needed. *)
  let access_seqs = Hashtbl.create (Vec.length sim.log_keys) in
  for i = 0 to Vec.length sim.log_keys - 1 do
    let key = Vec.get sim.log_keys i in
    Hashtbl.replace access_seqs
      (key lsr 32, key land 0xFFFFFFFF)
      (Vec.to_list (Vec.get sim.log_vecs i))
  done;
  (* The exit vectors are in exit order; one backward walk over the
     contiguous arrays rebuilds all three exit-ordered lists. *)
  let headers_out = ref [] and exit_order = ref [] and latencies = ref [] in
  for i = Vec.length sim.exit_seqs - 1 downto 0 do
    let seq = Vec.get sim.exit_seqs i in
    headers_out := (seq, Vec.get sim.exit_headers i) :: !headers_out;
    exit_order := seq :: !exit_order;
    latencies := (seq, Vec.get sim.exit_lats i) :: !latencies
  done;
  let headers_out = !headers_out and exit_order = !exit_order and latencies = !latencies in
  {
    delivered = sim.delivered;
    dropped = sim.dropped;
    dropped_stateless = sim.dropped_stateless;
    marked = sim.marked;
    cycles = sim.last_exit - first_arrival + 1;
    input_span;
    normalized_throughput;
    max_queue = max_queue_depth sim;
    store = merge_stores sim;
    headers_out;
    access_seqs;
    exit_order;
    latencies;
  }

(* Exact equality of two results, for the kernel-vs-interpreter
   differential harnesses.  Hashtables are compared by sorted contents,
   not structurally (bucket layout is an implementation detail). *)
let results_equal (a : result) (b : result) =
  let tbl_sorted t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare in
  a.delivered = b.delivered && a.dropped = b.dropped
  && a.dropped_stateless = b.dropped_stateless
  && a.marked = b.marked && a.cycles = b.cycles && a.input_span = b.input_span
  && a.normalized_throughput = b.normalized_throughput
  && a.max_queue = b.max_queue
  && Store.equal a.store b.store
  && a.headers_out = b.headers_out && a.exit_order = b.exit_order
  && a.latencies = b.latencies
  && tbl_sorted a.access_seqs = tbl_sorted b.access_seqs

(* --- streaming entry points --- *)

let finish_summary sim st source =
  let consumed = Psource.consumed source in
  let input_span = Psource.last_time source - st.first_arrival + 1 in
  let output_span = if sim.first_exit < 0 then 1 else sim.last_exit - sim.first_exit + 1 in
  let normalized_throughput =
    if sim.delivered = 0 then 0.0
    else
      min 1.0
        (float_of_int sim.delivered *. float_of_int input_span
        /. (float_of_int consumed *. float_of_int output_span))
  in
  {
    s_delivered = sim.delivered;
    s_dropped = sim.dropped;
    s_dropped_stateless = sim.dropped_stateless;
    s_marked = sim.marked;
    s_cycles = sim.last_exit - st.first_arrival + 1;
    s_input_span = input_span;
    s_normalized_throughput = normalized_throughput;
    s_max_queue = max_queue_depth sim;
    s_packets = consumed;
    s_store = merge_stores sim;
    s_digests =
      { dg_exits = Hashing.finish (sim.ed_hi, sim.ed_lo); dg_access = access_digest sim };
  }

let run_source ?team ?loop ?observer ?metrics ?events ?fault ?monitor ?prof
    ?(compiled = true) ?checkpoint_every ?on_checkpoint ?(heartbeat_every = 1) ?on_heartbeat
    ?stop ?cycle_budget params prog source =
  (match checkpoint_every with
  | Some n when n <= 0 -> invalid_arg "Sim.run_source: checkpoint_every must be positive"
  | _ -> ());
  if heartbeat_every <= 0 then
    invalid_arg "Sim.run_source: heartbeat_every must be positive";
  let heartbeat = Option.map (fun f -> (heartbeat_every, f)) on_heartbeat in
  let start_time =
    match Psource.peek source with
    | Some i -> i.Machine.time
    | None -> invalid_arg "Sim.run_source: empty source"
  in
  if Psource.consumed source > 0 then
    invalid_arg "Sim.run_source: source already partially consumed";
  let sim = create ~compiled ~collect:false ?metrics ?events ?fault ?monitor ?prof params prog in
  (match sim.flt with
  | Some _ ->
      (* Ghost seqs must not collide with trace seqs; with the total
         unknown, reserve them far above any realistic stream. *)
      let base = match Psource.total_hint source with Some n -> n | None -> 1 lsl 40 in
      sim.dup_base <- base;
      sim.dup_next <- base
  | None -> ());
  let st =
    fresh_loop_state ~start:start_time
      ~track_src:(checkpoint_every <> None || cycle_budget <> None || stop <> None)
  in
  match
    drive ?team ?loop sim st source ~observer ~checkpoint_every ~on_checkpoint ~cycle_budget
      ~heartbeat ~stop
  with
  | `Suspended snap -> Suspended snap
  | `Done -> Completed (finish_summary sim st source)

exception Resume_mismatch of string

(* Decode a machine snapshot into a rebuilt [(sim, loop_state)] plus the
   source cursor it expects, shared by [resume] and [node_restore] below.
   Source positioning is the caller's business: [resume] replays or
   re-attaches a full source, a fabric node restore attaches a fresh
   live queue pre-positioned at the cursor. *)
let decode_machine ?metrics ?events ?monitor ?prof ~compiled prog r =
  Binio.r_tag r ~expect:1 ~what:"params section";
  let params = r_params r in
  Binio.r_tag r ~expect:2 ~what:"program section";
  let pdig = Binio.r_int r in
  if pdig <> prog_digest prog then
    raise (Resume_mismatch "snapshot was taken against a different program");
  Binio.r_tag r ~expect:3 ~what:"loop section";
  let now = Binio.r_int r in
  let first_arrival = Binio.r_int r in
  let last_score = Binio.r_int r in
  let last_progress_t = Binio.r_int r in
  let delivered = Binio.r_int r in
  let dropped = Binio.r_int r in
  let dropped_stateless = Binio.r_int r in
  let marked = Binio.r_int r in
  let in_flight = Binio.r_int r in
  let first_exit = Binio.r_int r in
  let last_exit = Binio.r_int r in
  let dup_base = Binio.r_int r in
  let dup_next = Binio.r_int r in
  Binio.r_tag r ~expect:4 ~what:"source section";
  let consumed = Binio.r_int r in
  let _src_last_time = Binio.r_int r in
  let sd_hi = Binio.r_int r in
  let sd_lo = Binio.r_int r in
  Binio.r_tag r ~expect:5 ~what:"fault section";
  let fault_state =
    if Binio.r_bool r then begin
      let plan = r_plan r in
      let n = Binio.r_int r in
      let rng = Array.make (max n 1) 0L in
      for i = 0 to n - 1 do
        rng.(i) <- Binio.r_i64 r
      done;
      let rng = Array.sub rng 0 n in
      let sv_next_i = Binio.r_int r in
      let sv_active = Array.to_list (Binio.r_int_array r) in
      Some (plan, { Fault.sv_rng = rng; sv_next_i; sv_active })
    end
    else None
  in
  Binio.r_tag r ~expect:6 ~what:"metrics section";
  let mdump = if Binio.r_bool r then Some (Binio.r_int_array r) else None in
  (match (mdump, metrics) with
  | Some _, None ->
      raise
        (Resume_mismatch "snapshot carries metrics; resume with ~metrics to receive them")
  | None, Some _ -> raise (Resume_mismatch "snapshot has no metrics, but ~metrics was passed")
  | Some d, Some m -> Metrics.restore_into m d
  | None, None -> ());
  let sim =
    create ~compiled ~collect:false ?metrics ?events
      ?fault:(Option.map fst fault_state) ?monitor ?prof params prog
  in
  (match (fault_state, sim.flt) with
  | Some (plan, saved), Some _ ->
      sim.flt <- Some (Fault.restore plan ~k:params.k ~stages:sim.n_stages ~now saved)
  | None, None -> ()
  | _ -> assert false);
  Binio.r_tag r ~expect:7 ~what:"store section";
  for p = 0 to params.k - 1 do
    for reg = 0 to Array.length sim.config.Config.regs - 1 do
      Binio.r_int_array_into r (Store.array sim.stores.(p) ~reg)
        ~mismatch:"snapshot: register array size does not match the program"
    done
  done;
  Binio.r_tag r ~expect:8 ~what:"index map section";
  Array.iter (Index_map.r_state r) sim.maps;
  Binio.r_tag r ~expect:9 ~what:"queue section";
  for s = 0 to sim.n_stages - 1 do
    for p = 0 to params.k - 1 do
      r_queue r sim s p
    done
  done;
  Binio.r_tag r ~expect:10 ~what:"transfer section";
  for s = 0 to sim.n_stages - 1 do
    let n = Binio.r_int r in
    for _ = 1 to n do
      let desc = Binio.r_int r in
      let pkt = r_packet r sim in
      Vec.push sim.t_descs.(s) desc;
      Vec.push sim.t_pkts.(s) pkt
    done
  done;
  Binio.r_tag r ~expect:11 ~what:"channel section";
  let n_pending = Binio.r_int r in
  for _ = 1 to n_pending do
    let at = Binio.r_int r in
    let d_seq = Binio.r_int r in
    let d_stage = Binio.r_int r in
    let d_dest = Binio.r_int r in
    let d_ring = Binio.r_int r in
    let d_cell = Binio.r_int r in
    Channel.schedule sim.channel ~at { d_seq; d_stage; d_dest; d_ring; d_cell }
  done;
  Binio.r_tag r ~expect:12 ~what:"doomed section";
  Array.iter (fun seq -> Hashtbl.replace sim.doomed seq ()) (Binio.r_int_array r);
  Binio.r_tag r ~expect:13 ~what:"watch section";
  let mismatch = "snapshot: head watch row size mismatch" in
  Array.iter (fun row -> Binio.r_int_array_into r row ~mismatch) sim.hw_key;
  Array.iter (fun row -> Binio.r_int_array_into r row ~mismatch) sim.hw_since;
  Array.iter
    (fun row ->
      if Binio.r_array_length r <> Array.length row then
        failwith "snapshot: claim row size mismatch";
      for i = 0 to Array.length row - 1 do
        row.(i) <- Binio.r_int r <> 0
      done)
    sim.claimed;
  sim.claims_dirty <- Binio.r_bool r;
  Binio.r_tag r ~expect:14 ~what:"digest section";
  sim.ed_hi <- Binio.r_int r;
  sim.ed_lo <- Binio.r_int r;
  let n_keys = Binio.r_count r ~min_bytes:24 ~what:"access log length" in
  Mp5_util.Int_table.reserve sim.access_log n_keys;
  Vec.reserve sim.log_keys n_keys 0;
  Vec.reserve sim.dig_hi n_keys 0;
  Vec.reserve sim.dig_lo n_keys 0;
  for i = 0 to n_keys - 1 do
    let key = Binio.r_int r in
    Mp5_util.Int_table.replace sim.access_log key i;
    Vec.push sim.log_keys key;
    Vec.push sim.dig_hi (Binio.r_int r);
    Vec.push sim.dig_lo (Binio.r_int r)
  done;
  Binio.r_tag r ~expect:15 ~what:"end marker";
  if Binio.remaining r <> 0 then failwith "snapshot: trailing data after end marker";
  sim.delivered <- delivered;
  sim.dropped <- dropped;
  sim.dropped_stateless <- dropped_stateless;
  sim.marked <- marked;
  sim.first_exit <- first_exit;
  sim.last_exit <- last_exit;
  sim.dup_base <- dup_base;
  sim.dup_next <- dup_next;
  let counted = count_in_flight sim in
  if counted <> in_flight then
    raise
      (Resume_mismatch
         (Printf.sprintf "snapshot inconsistent: %d packets serialized, %d in flight"
            counted in_flight));
  sim.in_flight <- in_flight;
  let st =
    {
      now;
      first_arrival;
      last_score;
      last_progress_t;
      visited = 0;
      sd_hi;
      sd_lo;
      track_src = true;
    }
  in
  (sim, st, consumed)

let resume ?team ?loop ?observer ?metrics ?events ?monitor ?prof ?(compiled = true)
    ?checkpoint_every ?on_checkpoint ?(heartbeat_every = 1) ?on_heartbeat ?stop
    ?cycle_budget ~snapshot prog source =
  if heartbeat_every <= 0 then invalid_arg "Sim.resume: heartbeat_every must be positive";
  let heartbeat = Option.map (fun f -> (heartbeat_every, f)) on_heartbeat in
  (* A resume boundary is a cold point by definition, and chunked
     gigapacket runs pass through one every few hundred thousand cycles.
     Collecting here releases the previous chunk's machine plus the
     floating garbage the cycle loop promoted (OCaml 5.1 has no
     compaction, so unpaced float ratchets the major heap), which is
     what keeps a chunked run's peak heap bounded by one chunk's churn
     instead of the whole run's. *)
  Gc.full_major ();
  match Binio.of_string ~magic:snap_magic snapshot with
  | Error msg -> Error (Corrupt msg)
  | Ok r -> (
      let decode () =
        let sim, st, consumed =
          decode_machine ?metrics ?events ?monitor ?prof ~compiled prog r
        in
        (* Position the source.  A source already at the checkpoint's
           cursor (in-process chunked resume) is used as-is; a fresh
           source replays the consumed prefix under the digest, proving
           it feeds the same packets the checkpointed run saw. *)
        (match Psource.consumed source with
        | c when c = consumed -> ()
        | 0 ->
            let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
            for i = 0 to consumed - 1 do
              match Psource.next source with
              | None ->
                  raise
                    (Resume_mismatch
                       (Printf.sprintf "source ended after %d packets; snapshot consumed %d" i
                          consumed))
              | Some input ->
                  let h, l = fold_src_digest !hi !lo input in
                  hi := h;
                  lo := l
            done;
            if !hi <> st.sd_hi || !lo <> st.sd_lo then
              raise (Resume_mismatch "source does not replay the checkpointed run's packets")
        | c ->
            raise
              (Resume_mismatch
                 (Printf.sprintf
                    "source already consumed %d packets; snapshot expects 0 (replay) or %d \
                     (positioned)"
                    c consumed)));
        (sim, st)
      in
      match decode () with
      | exception Resume_mismatch msg -> Error (Mismatch msg)
      | exception Binio.Corrupt { pos; reason } ->
          Error (Corrupt (Binio.corrupt_message ~pos ~reason))
      | exception Failure msg -> Error (Corrupt msg)
      | exception Invalid_argument msg -> Error (Corrupt ("snapshot: " ^ msg))
      | sim, st -> (
          match
            drive ?team ?loop sim st source ~observer ~checkpoint_every ~on_checkpoint
              ~cycle_budget ~heartbeat ~stop
          with
          | `Suspended snap -> Ok (Suspended snap)
          | `Done -> Ok (Completed (finish_summary sim st source))))

(* --- summary parity with collected results (the differential pin) --- *)

let digests_of_result (r : result) =
  let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
  let feed x =
    let h, l = Hashing.feed_int_halves !hi !lo x in
    hi := h;
    lo := l
  in
  List.iter2
    (fun (seq, headers) (seq', lat) ->
      assert (seq = seq');
      feed seq;
      feed lat;
      Array.iter feed headers)
    r.headers_out r.latencies;
  let dg_exits = Hashing.finish (!hi, !lo) in
  let dg_access =
    Hashtbl.fold
      (fun (reg, cell) seqs acc ->
        let key = (reg lsl 32) lor cell in
        let hi = ref Hashing.fnv_offset_hi and lo = ref Hashing.fnv_offset_lo in
        let feed x =
          let h, l = Hashing.feed_int_halves !hi !lo x in
          hi := h;
          lo := l
        in
        feed key;
        List.iter feed seqs;
        (acc + Hashing.finish (!hi, !lo)) land digest_mask)
      r.access_seqs 0
  in
  { dg_exits; dg_access }

let summary_of_result ~packets (r : result) =
  {
    s_delivered = r.delivered;
    s_dropped = r.dropped;
    s_dropped_stateless = r.dropped_stateless;
    s_marked = r.marked;
    s_cycles = r.cycles;
    s_input_span = r.input_span;
    s_normalized_throughput = r.normalized_throughput;
    s_max_queue = r.max_queue;
    s_packets = packets;
    s_store = r.store;
    s_digests = digests_of_result r;
  }

let summary_equal (a : summary) (b : summary) =
  a.s_delivered = b.s_delivered && a.s_dropped = b.s_dropped
  && a.s_dropped_stateless = b.s_dropped_stateless
  && a.s_marked = b.s_marked && a.s_cycles = b.s_cycles
  && a.s_input_span = b.s_input_span
  && a.s_normalized_throughput = b.s_normalized_throughput
  && a.s_max_queue = b.s_max_queue && a.s_packets = b.s_packets
  && Store.equal a.s_store b.s_store
  && a.s_digests = b.s_digests

(* --- fabric node stepping (lib/fabric) --- *)

(* A node is one switch inside a multi-switch fabric: a [collect:false]
   sim fed by a live queue source, stepped one lock-step cycle at a time
   by the fabric driver.  The driver owns everything [drive] normally
   owns — idle fast-forward, the progress guard, checkpoint cadence —
   because those are fabric-global decisions (a switch idles only when
   the whole fabric is quiet).  [node_step] is exactly the generic
   sequential cycle, phase for phase, so a one-switch fabric fed the
   same packets at the same cycles is bit-identical to [Sim.run]. *)
type node = {
  nd_sim : sim;
  nd_st : loop_state;
  nd_q : Machine.input Queue.t;
  nd_src : Psource.t;
}

let node_create ?metrics ?events ?monitor ?(compiled = true) ~anchor ~on_exit ~on_drop
    params prog =
  let sim = create ~compiled ~collect:false ?metrics ?events ?monitor params prog in
  sim.on_exit <- Some on_exit;
  sim.on_drop <- Some on_drop;
  let q = Queue.create () in
  let src = Psource.of_queue q in
  let st = fresh_loop_state ~start:anchor ~track_src:false in
  { nd_sim = sim; nd_st = st; nd_q = q; nd_src = src }

(* Sequence numbers are assigned in admission order, which for a queue
   source is push order, so the local seq of a pushed packet is known at
   push time: its 0-based position in the overall push stream. *)
let node_inject node input =
  Queue.push input node.nd_q;
  Psource.consumed node.nd_src + Psource.buffered node.nd_src + Queue.length node.nd_q - 1

let node_step node ~now =
  let sim = node.nd_sim and st = node.nd_st in
  let t = now in
  (match sim.mon with
  | Some mon when Monitor.due mon ~now:t -> monitor_phase sim mon t
  | _ -> ());
  (match sim.flt with Some f -> fault_edges sim f t | None -> ());
  (match sim.ms with Some m -> Metrics.on_cycle m | None -> ());
  deliver_phantoms sim t;
  apply_transfers sim t;
  arrival_phase sim t node.nd_src st;
  pop_phase sim t;
  (match sim.ms with Some m -> metrics_sweep sim m | None -> ());
  exec_phase sim t;
  movement_phase sim t;
  if
    sim.p.remap_period > 0 && t > st.first_arrival
    && (t - st.first_arrival) mod sim.p.remap_period = 0
  then remap_phase sim t;
  st.now <- t + 1;
  st.visited <- st.visited + 1

let node_in_flight node = node.nd_sim.in_flight
let node_backlog node = Queue.length node.nd_q + Psource.buffered node.nd_src

(* Injected-but-unadmitted packets in admission order: the lookahead
   slot first, then the ingress queue.  What a fabric snapshot records
   so a restored node can be re-injected the exact backlog. *)
let node_pending node =
  let q = Queue.fold (fun acc x -> x :: acc) [] node.nd_q |> List.rev in
  match Psource.lookahead node.nd_src with Some x -> x :: q | None -> q
let node_consumed node = Psource.consumed node.nd_src
let node_delivered node = node.nd_sim.delivered
let node_dropped node = node.nd_sim.dropped
let node_dropped_stateless node = node.nd_sim.dropped_stateless
let node_marked node = node.nd_sim.marked
let node_max_queue node = max_queue_depth node.nd_sim
let node_access_digest node = access_digest node.nd_sim
let node_store node = merge_stores node.nd_sim

let node_next_due node = Channel.next_due node.nd_sim.channel

let node_fault_edge node =
  match node.nd_sim.flt with Some f -> Fault.next_edge f | None -> max_int

let node_final_check node =
  match node.nd_sim.mon with
  | Some mon -> monitor_phase node.nd_sim mon node.nd_st.now
  | None -> ()

let node_encode w node =
  Binio.w_framed w ~magic:snap_magic (fun w ->
      encode_into w node.nd_sim node.nd_st node.nd_src)

let node_restore ?metrics ?events ?monitor ?(compiled = true) ~on_exit ~on_drop r prog =
  match
    decode_machine ?metrics ?events ?monitor ~compiled prog
      (Binio.r_framed r ~magic:snap_magic)
  with
  | exception Resume_mismatch msg -> Error (Mismatch msg)
  | exception Binio.Corrupt { pos; reason } ->
      Error (Corrupt (Binio.corrupt_message ~pos ~reason))
  | exception Failure msg -> Error (Corrupt msg)
  | exception Invalid_argument msg -> Error (Corrupt ("snapshot: " ^ msg))
  | sim, st, consumed ->
      sim.on_exit <- Some on_exit;
      sim.on_drop <- Some on_drop;
      let q = Queue.create () in
      let src = Psource.of_queue ~consumed q in
      Ok { nd_sim = sim; nd_st = { st with track_src = false }; nd_q = q; nd_src = src }
