module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Store = Mp5_banzai.Store
module Machine = Mp5_banzai.Machine
module Fifo = Mp5_arch.Fifo
module Channel = Mp5_arch.Channel
module Int_vec = Mp5_util.Int_vec
module Int_table = Mp5_util.Int_table
module Metrics = Mp5_obs.Metrics
module Etrace = Mp5_obs.Trace
module Prof = Mp5_obs.Prof
module Fault = Mp5_fault.Fault
module Monitor = Mp5_fault.Monitor
module Psource = Mp5_workload.Packet_source
module Binio = Mp5_util.Binio
module Hashing = Mp5_util.Hashing
module C = Mp5_util.Codec

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

(* The per-packet observables, condensed online by every run: the
   machine folds each exit and each register access into these as it
   happens, whether or not anything else records them. *)
type digests = {
  dg_exits : int;
      (* FNV-1a over (seq, latency, user headers) of every exit, in exit
         order *)
  dg_access : int;
      (* per-(reg, cell) FNV-1a over the access sequence (seeded with the
         packed key), the finished per-cell digests combined with
         [Hashing.combine] — commutative, so the value is independent of
         first-touch order and survives checkpoint legs *)
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
  digests : digests;
  headers_out : (int * int array) list;
  access_seqs : (int * int, int list) Hashtbl.t;
  exit_order : int list;
  latencies : (int * int) list;
}

(* --- streaming summaries (the bounded-memory counterpart of [result]) --- *)

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

(* Accepted, no effect: there is one cycle loop.  The constructors
   remain so callers that name a variant keep compiling. *)
type loop = Auto | Generic | Fast

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
  pc_cells : (int, Fifo.t) Hashtbl.t;
  pc_ready : (int, unit) Hashtbl.t;
  mutable pc_high : int;  (* high-water mark surviving retired cell FIFOs *)
      (* cells whose head may be ready data: refreshed on insert, on pop
         (the next entry may already be data) and on phantom
         cancellation.  Keeps the per-cycle scan proportional to the
         number of ready heads rather than to every blocked phantom. *)
}

type queue = Logical of Fifo.t | Per_cell of per_cell

(* A transfer is a packet plus a packed descriptor int:
   bits 0-1 tag (0 = stateless, 1 = stateful, 2 = queued),
   bits 2-7 destination pipeline, bits 8-13 source pipeline,
   bits 14+ cell + 1 (so the unresolved cell -1 packs non-negatively).
   Packing instead of a variant record keeps the movement phase from
   allocating one block per packet per stage per cycle. *)
let t_stateless = 0
and t_stateful = 1
and t_queued = 2

let[@inline] pack_transfer ~tag ~dest ~src ~cell =
  tag lor (dest lsl 2) lor (src lsl 8) lor ((cell + 1) lsl 14)

type sim = {
  p : params;
  prog : Transform.t;
  config : Config.t;
  kernel : Kernel.t;                       (* closure stage kernels, built once *)
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
  (* Each delivery carries the slab access index it was scheduled
     from ([ab + acc_id]): the deliverer records the phantom's FIFO
     position there, and a delivery whose slot no longer holds its seq
     ([Slab.release] poisons it) belongs to a dropped packet. *)
  channel : Channel.t;
  (* starvation guard: watched head key (-1 = none) and the cycle it was
     first seen, [stage][pipeline]; two int matrices so the per-cycle
     refresh allocates nothing *)
  hw_key : int array array;
  hw_since : int array array;
  watch_heads : bool;                      (* starvation guard active? *)
  (* per-cycle transfer buffers, [stage] indexed, refilled during
     movement and drained (then cleared, keeping capacity) on apply;
     parallel vectors of packets and packed descriptors *)
  t_pkts : Int_vec.t array;
  t_descs : Int_vec.t array;
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
  (* The per-packet observables as constant-size FNV digest state, the
     only form the machine keeps: [ed] folds every exit; per touched
     (reg, cell), [log_slot.(reg).(cell)] is its slot in the parallel
     [log_keys]/[dig_hi]/[dig_lo] vectors (-1 until first touched),
     [log_keys] holds [reg lsl 32 lor cell] in first-touch order, and
     the digests are fed through the scratch state [dig].  Memory is
     proportional to the register file, not to the packet count, and
     every fabric node keeps its own digests.  Per-packet lists exist
     only where a caller records them through [on_exit]/[on_access]
     ([run]'s collectors). *)
  log_slot : int array array;
  log_keys : Int_vec.t;
  ed : Hashing.state;
  dig_hi : Int_vec.t;
  dig_lo : Int_vec.t;
  dig : Hashing.state;
  (* Decode scratch, kept so a recycled machine decodes without growing
     it: the seq -> slab slot index of the restored packets, one
     (seq, stage, position) triple per queued live phantom, and per
     register the offset its in-flight counts were read at. *)
  dec_slots : Int_table.t;
  dec_phantoms : Int_vec.t;
  dec_pins : int array;
  (* telemetry (lib/obs): [None] when disabled, so every instrumentation
     site below costs one immediate-branch and the instrumented state
     lives entirely outside the simulated machine — results are
     bit-identical with telemetry on or off *)
  mutable ms : Metrics.t option;
  mutable tr : Etrace.t option;
  (* wall-clock span profiler (lib/obs/prof): same pure-observer
     discipline — [None] costs one branch per site, and all profiler
     state (clock reads included) lives outside the simulated machine,
     so results are bit-identical with profiling off/sampled/full *)
  mutable pf : Prof.t option;
  (* fault injection and runtime invariant monitor (lib/fault): same
     discipline as the telemetry above — [None] costs one branch per
     site and leaves results bit-identical.  [flt] and [fplan] are
     mutable only so a decode can install the runtime and plan its
     snapshot carries; [fplan] keeps the plan itself for embedding in
     snapshots. *)
  mutable flt : Fault.t option;
  mutable fplan : Fault.plan option;
  mutable mon : Monitor.t option;
  (* ghost packets from crossbar duplication get fresh seqs starting at
     the trace length; [max_int] (never reached) without a fault
     plan, so the one hot-loop compare that guards ghosts from
     executing stateful accesses is always-true on the no-fault path *)
  mutable dup_base : int;
  mutable dup_next : int;
  (* Per-packet hooks: pure observers fired where a packet leaves the
     machine (exit, drop) and where it touches a register cell.  Same
     discipline as the telemetry above: [None] costs one branch per
     site and the hooks never touch simulated state, so results are
     bit-identical with hooks set or not.  [run]'s collectors set
     [on_exit]/[on_access], the fabric node API [on_exit]/[on_drop];
     they fire in [exit_packet], [log_access] and [drop_packet].
     [on_exit] reads the packet's user headers in place, [fields.(off)]
     on, before the slab slot is recycled: a hook copies them out only
     if it keeps them.  [on_access] gets the cell's access-log slot with
     it. *)
  mutable on_exit : (seq:int -> latency:int -> fields:int array -> off:int -> unit) option;
  mutable on_access : (slot:int -> reg:int -> cell:int -> seq:int -> unit) option;
  mutable on_drop : (seq:int -> unit) option;
}

let make_queue sim =
  match sim.p.mode with
  | Ideal -> Per_cell { pc_cells = Hashtbl.create 8; pc_ready = Hashtbl.create 8; pc_high = 0 }
  | _ ->
      Logical
        (Fifo.create ~k:sim.p.k ~capacity:sim.p.fifo_capacity ~adaptive:sim.p.adaptive_fifos)

(* Profiler spans for the cycle loop.  Detached, [span_start] returns
   0 and no clock is read, so each site costs one branch.  [lap] closes
   the span opened at [t0] and returns the next span's start: adjacent
   spans share one boundary timestamp, one clock read per phase.
   [mark] closes a span and adds an instant (remap, checkpoint). *)
let[@inline] span_start sim = match sim.pf with None -> 0 | Some _ -> Prof.now ()

let[@inline] lap sim phase t0 =
  match sim.pf with
  | None -> 0
  | Some pf ->
      let t1 = Prof.now () in
      Prof.add pf phase ~ts:t0 ~dur:(t1 - t0);
      t1

let mark sim phase t0 =
  match sim.pf with
  | None -> ()
  | Some pf ->
      Prof.record pf phase ~t0;
      Prof.instant pf phase

(* Per-cell FIFOs are created and retired per cell, and each holds one
   cell's few queued accesses: one-slot rings keep them small. *)
let cell_fifo sim pc cell =
  match Hashtbl.find_opt pc.pc_cells cell with
  | Some f -> f
  | None ->
      let f =
        Fifo.create_small ~k:sim.p.k ~capacity:sim.p.fifo_capacity
          ~adaptive:sim.p.adaptive_fifos
      in
      Hashtbl.add pc.pc_cells cell f;
      f

(* The fault plan a machine keeps: an empty plan is no plan. *)
let active_plan = function
  | Some plan when not (Fault.is_empty plan) -> Some plan
  | _ -> None

(* Why [metrics] cannot count for an [n_stages] x [k] machine, if it
   cannot: [create] raises it, a resume reports it as a mismatch. *)
let metrics_misfit metrics ~n_stages ~k =
  match metrics with
  | Some m when m.Metrics.m_stages <> n_stages || m.Metrics.m_k <> k ->
      Some
        (Printf.sprintf "metrics sized %d stages x %d, machine is %d x %d" m.Metrics.m_stages
           m.Metrics.m_k n_stages k)
  | _ -> None

let create ?metrics ?events ?fault ?monitor ?prof params prog =
  let config = prog.Transform.config in
  let n_stages = Array.length config.Config.stages in
  let fplan = active_plan fault in
  let flt =
    match fplan with
    | Some plan -> Some (Fault.start plan ~k:params.k ~stages:n_stages)
    | None -> None
  in
  Option.iter
    (fun e -> invalid_arg ("Sim.create: " ^ e))
    (metrics_misfit metrics ~n_stages ~k:params.k);
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
              (* An unsharded array sits on its stage's pipeline, so
                 the arrays of one stage share a pipeline. *)
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
      kernel = Kernel.create ~compiled:true prog;
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
      hw_key = Array.make_matrix n_stages params.k (-1);
      hw_since = Array.make_matrix n_stages params.k 0;
      watch_heads = params.starvation_threshold <> None;
      t_pkts = Array.init n_stages (fun _ -> Int_vec.create ());
      t_descs = Array.init n_stages (fun _ -> Int_vec.create ());
      claimed = Array.make_matrix n_stages params.k false;
      claims_dirty = false;
      delivered = 0;
      dropped = 0;
      dropped_stateless = 0;
      marked = 0;
      in_flight = 0;
      first_exit = -1;
      last_exit = 0;
      log_slot =
        Array.map (fun (reg : Config.reg) -> Array.make reg.Config.size (-1)) config.Config.regs;
      log_keys = Int_vec.create ();
      ed = Hashing.start ();
      dig_hi = Int_vec.create ();
      dig_lo = Int_vec.create ();
      dig = Hashing.start ();
      dec_slots = Int_table.create ();
      dec_phantoms = Int_vec.create ();
      dec_pins = Array.make (Array.length config.Config.regs) 0;
      ms = metrics;
      tr = events;
      pf = prof;
      flt;
      fplan;
      mon = monitor;
      dup_base = max_int;
      dup_next = max_int;
      on_exit = None;
      on_access = None;
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

(* First access in [accs] that will queue a packet: one whose guard is
   not known false in the [gk] column, the packet's access state
   starting at [ab].  Returns the acc id, or -1 when the packet passes
   the stage statelessly — an int so no list is allocated, and a
   [while] over locals so no closure is either. *)
let[@inline] first_queued accs gk ab =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length accs do
    let id = Array.unsafe_get accs !i in
    if gk.(ab + id) <> gk_false then found := id else incr i
  done;
  !found

let queued_acc sim pkt stage =
  first_queued sim.accs_by_stage.(stage) sim.sl.Slab.gk (pkt * sim.sl.Slab.na)

(* The slab access index through which packet [pkt] queues at [stage]:
   the access a delivery there was scheduled from, and the one the
   stateful insert reads the position of.  -1 when it queues none. *)
let queued_index sim pkt stage =
  let a = queued_acc sim pkt stage in
  if a < 0 then -1 else (pkt * sim.sl.Slab.na) + a

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
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    if sl.Slab.done_.(ab + i) = 0 then begin
      sl.Slab.done_.(ab + i) <- 1;
      release_inflight sim pkt i;
      (* Cancel phantoms parked at later stages, at the positions their
         deliveries recorded.  An undelivered one has position -1, a
         no-op here; its delivery finds the slot released. *)
      let plan = sim.accesses.(i) in
      if plan.Transform.stage > at_stage && sl.Slab.gk.(ab + i) <> gk_false then
        let pos = sl.Slab.pos.(ab + i) in
        match sim.fifos.(plan.Transform.stage).(sl.Slab.dest.(ab + i)) with
        | Some (Logical f) -> Fifo.cancel f ~pos ~key:seq
        | Some (Per_cell pc) -> (
            let cell = sl.Slab.cell.(ab + i) in
            match Hashtbl.find_opt pc.pc_cells cell with
            | Some f ->
                Fifo.cancel f ~pos ~key:seq;
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
    sl.Slab.counted.(ab + i) <- 0;
    sl.Slab.pos.(ab + i) <- -1
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
   ([dup_base]); [exec_phase] skips their accesses via one
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
  | Some (Logical f) ->
      let pkt = Fifo.take f in
      if pkt >= 0 then drop_packet sim now pkt (s - 1) Metrics.Injected
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

(* A queued data packet must sit at the pipeline its queued access
   resolved to, and that pipeline must still hold its cell's state
   (D2 flow affinity) — remaps are pinned off cells with packets in
   flight, so a mismatch means sharding routed state and packet apart.
   The monitor's checks build their diagnostic only when one fails, so
   a clean check allocates nothing. *)
let check_affinity sim mon now stage p pkt =
  let a = queued_acc sim pkt stage in
  if a >= 0 then begin
    let sl = sim.sl in
    let ai = (pkt * sl.Slab.na) + a in
    let seq = sl.Slab.seq.(pkt) in
    let dest = sl.Slab.dest.(ai) and cell = sl.Slab.cell.(ai) in
    if dest <> p then
      Monitor.report mon ~cycle:now
        (Printf.sprintf "flow affinity: packet %d queued at stage %d pipe %d but resolved to pipe %d"
           seq stage p dest);
    if cell >= 0 then begin
      let home = Index_map.pipeline_of sim.maps.(sim.accesses.(a).Transform.reg) cell in
      if home <> p then
        Monitor.report mon ~cycle:now
          (Printf.sprintf
             "flow affinity: packet %d queued at stage %d pipe %d but cell %d lives on pipe %d" seq
             stage p cell home)
    end
  end

(* Every data entry of one FIFO checked for affinity; its data count. *)
let census_fifo sim mon now stage p f =
  for ring = 0 to Fifo.rings f - 1 do
    for i = 0 to Fifo.ring_length f ~ring - 1 do
      let pkt = Fifo.ring_data f ~ring i in
      if pkt >= 0 then check_affinity sim mon now stage p pkt
    done
  done;
  Fifo.data_length f

(* Re-derive the architecture's invariants from live machine state.
   Runs at the top of the cycle loop (and once after it), where the
   movement phase has emptied every slot into the transfer buffers, so
   in-flight = FIFO data entries + pending transfers (+ slots, counted
   anyway so the check also holds for a mid-cycle caller). *)
let monitor_phase sim mon now =
  Monitor.mark mon ~now;
  let counted = ref 0 in
  for stage = 0 to sim.n_stages - 1 do
    for p = 0 to sim.p.k - 1 do
      if sim.slots.(stage).(p) <> no_pkt then incr counted;
      match sim.fifos.(stage).(p) with
      | None -> ()
      | Some (Logical f) ->
          let bound = sim.p.k * sim.p.fifo_capacity in
          if (not sim.p.adaptive_fifos) && Fifo.length f > bound then
            Monitor.report mon ~cycle:now
              (Printf.sprintf "FIFO occupancy: stage %d pipe %d holds %d entries, bound %d" stage
                 p (Fifo.length f) bound);
          counted := !counted + census_fifo sim mon now stage p f
      | Some (Per_cell pc) ->
          counted :=
            Hashtbl.fold
              (fun _ f acc -> acc + census_fifo sim mon now stage p f)
              pc.pc_cells !counted
    done
  done;
  for stage = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(stage) and descs = sim.t_descs.(stage) in
    counted := !counted + Int_vec.length pkts;
    (* Pending stateful transfers must still be headed to their cell's
       pipeline.  Under a fault plan a stale destination is legal — the
       apply phase is guaranteed to drop it (downed destination or the
       misroute guard) before it could execute anywhere wrong — so the
       check is only a live invariant on fault-free runs. *)
    match sim.flt with
    | Some _ -> ()
    | None ->
        for i = 0 to Int_vec.length pkts - 1 do
          let desc = Int_vec.get descs i in
          if desc land 3 = t_stateful && (desc lsr 14) - 1 >= 0 then begin
            let pkt = Int_vec.get pkts i in
            let dest = (desc lsr 2) land 63 in
            if misrouted sim pkt stage dest then
              Monitor.report mon ~cycle:now
                (Printf.sprintf
                   "flow affinity: packet %d in transfer to stage %d pipe %d, cell moved away"
                   sim.sl.Slab.seq.(pkt) stage dest)
          end
        done
  done;
  if !counted <> sim.in_flight then
    Monitor.report mon ~cycle:now
      (Printf.sprintf "conservation: %d packets found in slots/FIFOs/transfers, %d in flight"
         !counted sim.in_flight);
  match sim.ms with
  | None -> ()
  | Some m ->
      let b = Metrics.total m.Metrics.m_busy
      and i = Metrics.total m.Metrics.m_idle
      and bl = Metrics.total m.Metrics.m_blocked in
      let expect = sim.n_stages * sim.p.k * m.Metrics.m_cycles in
      if b + i + bl <> expect then
        Monitor.report mon ~cycle:now
          (Printf.sprintf
             "cycle classification: busy %d + idle %d + blocked %d <> stages*k*cycles %d" b i bl
             expect);
      let sched = m.Metrics.m_phantom_scheduled in
      let accounted =
        m.Metrics.m_phantom_delivered + m.Metrics.m_phantom_doomed
        + m.Metrics.m_phantom_dropped + Channel.pending sim.channel
      in
      if sched <> accounted then
        Monitor.report mon ~cycle:now
          (Printf.sprintf "phantom conservation: %d scheduled, %d delivered+doomed+dropped+pending"
             sched accounted)

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

(* Access [i]'s guard state and cell as its kernels resolve them from
   the headers in [frame]: what arrival records, and what a decode
   requires of an access not yet executed. *)
let[@inline] header_gk sim frame i =
  match sim.kernel.Kernel.guard.(i) with
  | Kernel.G_true -> gk_true
  | Kernel.G_pred p -> if p frame then gk_true else gk_false
  | Kernel.G_unknown -> gk_unknown

let[@inline] header_cell sim frame i =
  match sim.kernel.Kernel.index.(i) with Kernel.I_cell f -> f frame | Kernel.I_none -> -1

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
    sl.Slab.gk.(ab + i) <- header_gk sim frame i;
    let cell = header_cell sim frame i in
    sl.Slab.cell.(ab + i) <- cell;
    sl.Slab.dest.(ab + i) <- Index_map.pipeline_of map (max cell 0);
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
          ~seq ~stage:plan.Transform.stage ~dest:sl.Slab.dest.(ab + i) ~ring:entry_pipeline
          ~cell ~slot:(ab + i)
      end
    end
  done

(* --- per-cycle phases --- *)

(* Each phase reads what it needs from [sim] once — the instruments,
   the fault runtime, the slab columns, each stage's slot and FIFO
   rows — instead of at every packet.  Two things bound how long a
   read stays valid.  Slab columns are replaced when the slab grows,
   which only [alloc_packet] does (from [arrival_phase] and from
   [spawn_dup], inside [apply_transfers]): no column is carried across
   either.  [spill_pipeline] (from the fault edges at the top of a
   cycle) and [decode_machine] replace FIFO objects in their rows: each
   phase reads the rows afresh, and no FIFO object outlives a phase. *)

(* A delivery scheduled from slab access index [slot] (-1 when decoded
   for a dropped packet) is doomed once the slot's packet is not the
   one with [seq]: released slots hold seq -1, reused ones another
   packet's. *)
let[@inline] delivery_doomed sl ~na ~seq ~slot = slot < 0 || sl.Slab.seq.(slot / na) <> seq

(* The phantom-calendar drain's per-delivery callback.  [make_cycle]
   builds it once per leg, since a closure built per drain would
   allocate every cycle, and sets [clock] to the cycle being drained.
   The instruments and the fault runtime are read at build time:
   [decode_machine] installs a restored fault runtime before any leg
   starts.  The slab is read per delivery: arrivals may grow it. *)
let phantom_deliverer sim clock =
  let ms = sim.ms and tr = sim.tr and flt = sim.flt in
  let fifos = sim.fifos and na = sim.sl.Slab.na in
  fun ~seq ~stage ~dest ~ring ~cell ~slot ->
    (* [aux] in the trace: 0 = delivered, 1 = suppressed (doomed),
       2 = lost with a downed pipeline. *)
    let aux =
      if delivery_doomed sim.sl ~na ~seq ~slot then begin
        (* Suppressed: the packet was dropped upstream. *)
        (match ms with Some m -> Metrics.phantom_doomed m | None -> ());
        1
      end
      else if match flt with Some f -> Fault.is_down f dest | None -> false then begin
        (* Destination pipeline is down: the phantom is lost with it.
           Its data packet, if it survives elsewhere, is dropped on
           transfer; accounting stays conserved via phantom_dropped. *)
        (match ms with Some m -> Metrics.phantom_dropped m | None -> ());
        2
      end
      else begin
        let f =
          match fifos.(stage).(dest) with
          | Some (Logical f) -> f
          | Some (Per_cell pc) -> cell_fifo sim pc cell
          | None -> invalid_arg "phantom destined to a stateless stage"
        in
        let pos = Fifo.push_phantom f ~ring ~ts:seq ~key:seq in
        sim.sl.Slab.pos.(slot) <- pos;
        (match ms with
        | Some m -> if pos >= 0 then Metrics.phantom_delivered m else Metrics.phantom_dropped m
        | None -> ());
        0
      end
    in
    match tr with
    | Some tr ->
        Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:!clock ~seq ~stage ~pipe:dest ~aux
    | None -> ()

(* Age of the blocked/queued head of a logical FIFO, for the starvation
   guard.  Updated once per cycle from the pop phase, and only when
   [starvation_threshold] is set ([watch_heads]): the pop phase skips
   both maintainers otherwise, and with them a whole [Fifo.head] ring
   scan per stateful (stage, pipeline) per cycle. *)
let watch_key sim now stage p key =
  if key = -1 then begin
    if sim.hw_key.(stage).(p) <> -1 then sim.hw_key.(stage).(p) <- -1
  end
  else if key <> sim.hw_key.(stage).(p) then begin
    sim.hw_key.(stage).(p) <- key;
    sim.hw_since.(stage).(p) <- now
  end

let update_head_watch sim now stage p =
  match sim.fifos.(stage).(p) with
  | Some (Logical f) -> watch_key sim now stage p (Fifo.head_key f)
  | _ -> ()

let head_age sim now stage p =
  if sim.hw_key.(stage).(p) < 0 then 0 else now - sim.hw_since.(stage).(p)

let notify_ready pc cell =
  Hashtbl.replace pc.pc_ready cell ();
  let f = Hashtbl.find pc.pc_cells cell in
  pc.pc_high <- max pc.pc_high (Fifo.max_occupancy f)

(* The ring behind stage input [q]: [cell]'s own ring in Ideal mode.
   Callers match [q] again for the Ideal bookkeeping, so no tuple or
   option is built per insert. *)
let[@inline] input_fifo sim q cell =
  match q with
  | Some (Logical f) -> f
  | Some (Per_cell pc) -> cell_fifo sim pc cell
  | None -> invalid_arg "stateful transfer to a stateless stage"

let apply_transfers sim now =
  let ms = sim.ms and tr = sim.tr and flt = sim.flt in
  let phantoms = uses_phantoms sim in
  let ecn_threshold = match sim.p.ecn_threshold with Some t -> t | None -> max_int in
  let starvation = sim.p.starvation_threshold in
  let sl = sim.sl in
  (* Re-read after every [spawn_dup], which may grow the slab. *)
  let seqs = ref sl.Slab.seq in
  for stage = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(stage) and descs = sim.t_descs.(stage) in
    let srow = sim.slots.(stage) and frow = sim.fifos.(stage) in
    (* Reverse order reproduces the consing order of the transfer lists
       this buffer replaced, keeping replays bit-identical. *)
    for i = Int_vec.length pkts - 1 downto 0 do
      let pkt = Int_vec.unsafe_get pkts i in
      let desc = Int_vec.unsafe_get descs i in
      let dest = (desc lsr 2) land 63 in
      let src = (desc lsr 8) land 63 in
      (* Fault gate: 0 = deliver, 1 = drop (downed destination or the
         post-evacuation misroute guard), 2 = injected crossbar drop,
         3 = deliver and duplicate.  The drop draw precedes the dup
         draw — the order is part of the deterministic replay — and
         duplication only applies to stateless transfers. *)
      let fate =
        match flt with
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
        (match ms with
        | Some m -> Metrics.transfer m ~stage ~cross:(dest <> src)
        | None -> ());
        (match tr with
        | Some tr ->
            Etrace.emit tr ~kind:Etrace.Crossbar ~cycle:now ~seq:!seqs.(pkt) ~stage ~pipe:dest
              ~aux:src
        | None -> ());
        match desc land 3 with
        | 1 (* stateful *) ->
            let seq = !seqs.(pkt) in
            let cell = (desc lsr 14) - 1 in
            let q = frow.(dest) in
            let f = input_fifo sim q cell in
            let pushed =
              if phantoms then
                let ai = queued_index sim pkt stage in
                let pos = if ai < 0 then -1 else sl.Slab.pos.(ai) in
                match Fifo.insert_data f ~pos ~key:seq pkt with
                | `Ok -> true
                | `No_phantom -> false
              else
                match Fifo.push_data f ~ring:src ~ts:((now lsl 22) lor seq) ~key:seq pkt with
                | `Ok -> true
                | `Dropped -> false
            in
            if pushed then begin
              (match q with Some (Per_cell pc) -> notify_ready pc cell | _ -> ());
              if Fifo.data_length f > ecn_threshold then sl.Slab.ecn.(pkt) <- 1
            end
            else
              (* With phantoms, a miss means the phantom was dropped by a
                 full ring; without, the data push itself hit a full
                 ring. *)
              drop_packet sim now pkt (stage - 1)
                (if phantoms then Metrics.No_phantom else Metrics.Fifo_full)
        | 2 (* queued *) -> (
            let seq = !seqs.(pkt) in
            let q = frow.(dest) in
            let f = input_fifo sim q (-1) in
            match Fifo.push_data f ~ring:src ~ts:seq ~key:seq pkt with
            | `Ok -> ( match q with Some (Per_cell pc) -> notify_ready pc (-1) | _ -> ())
            | `Dropped -> drop_packet sim now pkt (stage - 1) Metrics.Fifo_full)
        | _ (* stateless *) ->
            (* Starvation guard: sacrifice the stateless packet when the
               queued head has waited too long (§3.4). *)
            let starve =
              match starvation with
              | Some thr -> sim.stateful_stage.(stage) && head_age sim now stage dest > thr
              | None -> false
            in
            if starve then begin
              sim.dropped_stateless <- sim.dropped_stateless + 1;
              drop_packet sim now pkt (stage - 1) Metrics.Starved
            end
            else begin
              assert (srow.(dest) = no_pkt);
              srow.(dest) <- pkt;
              (match tr with
              | Some tr ->
                  Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now ~seq:!seqs.(pkt) ~stage
                    ~pipe:dest ~aux:1
              | None -> ());
              (* Duplicate only a packet that actually went through —
                 a starved one just recycled its frame. *)
              if fate = 3 then begin
                spawn_dup sim now pkt stage;
                seqs := sl.Slab.seq
              end
            end
      end
    done;
    Int_vec.clear pkts;
    Int_vec.clear descs
  done

(* Ideal mode's pop choice: the ready data head with the smallest key
   among cells flagged ready — phantoms block only their own cell —
   pruning stale ready flags and emptied cells on the way.  Iteration
   order does not matter: keys are unique, so the minimum is well
   defined. *)
let ready_cell pc =
  let best = ref None in
  let candidates = Hashtbl.fold (fun cell () acc -> cell :: acc) pc.pc_ready [] in
  List.iter
    (fun cell ->
      match Hashtbl.find_opt pc.pc_cells cell with
      | None -> Hashtbl.remove pc.pc_ready cell
      | Some f -> (
          let code = Fifo.head f in
          if code = Fifo.empty then begin
            Hashtbl.remove pc.pc_cells cell;
            Hashtbl.remove pc.pc_ready cell
          end
          else if code < 0 then Hashtbl.remove pc.pc_ready cell
          else
            let key = Fifo.head_key f in
            match !best with
            | Some (bkey, _, _) when bkey <= key -> ()
            | _ -> best := Some (key, f, cell)))
    candidates;
  !best

(* A data packet popped into its stage slot: a busy slot-cycle. *)
let[@inline] popped sim ms tr srow now stage p pkt =
  srow.(p) <- pkt;
  (match ms with Some m -> Metrics.busy m ~stage ~pipe:p | None -> ());
  match tr with
  | Some tr ->
      Etrace.emit tr ~kind:Etrace.Stage_entry ~cycle:now ~seq:sim.sl.Slab.seq.(pkt) ~stage
        ~pipe:p ~aux:0
  | None -> ()

let pop_phase sim now =
  let ms = sim.ms and tr = sim.tr and flt = sim.flt in
  let watch = sim.watch_heads in
  for stage = 0 to sim.n_stages - 1 do
    if sim.stateful_stage.(stage) then begin
      let srow = sim.slots.(stage) and frow = sim.fifos.(stage) in
      for p = 0 to sim.p.k - 1 do
        if srow.(p) <> no_pkt then begin
          (* Occupied before the pop: a stateless-priority packet claimed
             the slot (Invariant 2) — busy, attributed to the claim. *)
          (match ms with Some m -> Metrics.claimed m ~stage ~pipe:p | None -> ());
          if watch then update_head_watch sim now stage p
        end
        else
          let fault_blocked =
            match flt with
            | None -> false
            | Some f -> Fault.is_down f p || Fault.is_stalled f ~stage ~pipe:p
          in
          if fault_blocked then (
            (* Downed or stalled pipeline: no pops this cycle.  The
               slot-cycle is classified blocked so the cycle totals
               stay exact. *)
            match ms with
            | Some m -> Metrics.fault_stall m ~stage ~pipe:p
            | None -> ())
          else
            match frow.(p) with
            | Some (Logical f) ->
                (* One [Fifo.take] both decides and performs the pop; its
                   answer feeds the starvation watch, which only needs a
                   fresh [head] after a pop invalidated it.  The same
                   answer classifies the slot's cycle for free: data
                   popped = busy, phantom in front = blocked, nothing
                   queued = idle. *)
                let code = Fifo.take f in
                if code >= 0 then begin
                  popped sim ms tr srow now stage p code;
                  if watch then update_head_watch sim now stage p
                end
                else if code = Fifo.empty then begin
                  (match ms with
                  | Some m -> Metrics.stall_empty m ~stage ~pipe:p
                  | None -> ());
                  if watch then watch_key sim now stage p (-1)
                end
                else begin
                  let key = Fifo.blocked_key code in
                  (match ms with
                  | Some m -> Metrics.stall_phantom m ~stage ~pipe:p
                  | None -> ());
                  (match tr with
                  | Some tr ->
                      Etrace.emit tr ~kind:Etrace.Phantom_block ~cycle:now ~seq:key ~stage
                        ~pipe:p ~aux:0
                  | None -> ());
                  if watch then watch_key sim now stage p key
                end
            | Some (Per_cell pc) -> (
                match ready_cell pc with
                | Some (_, f, cell) ->
                    popped sim ms tr srow now stage p (Fifo.pop_data f);
                    (* The next entry of this cell may already be data. *)
                    Hashtbl.replace pc.pc_ready cell ()
                | None -> (
                    (* Metrics-only walk: anything still queued in any cell
                       means the stall is head-of-line blocking, not an
                       empty queue. *)
                    match ms with
                    | Some m ->
                        let queued =
                          Hashtbl.fold (fun _ f acc -> acc || Fifo.length f > 0) pc.pc_cells false
                        in
                        if queued then Metrics.stall_phantom m ~stage ~pipe:p
                        else Metrics.stall_empty m ~stage ~pipe:p
                    | None -> ()))
            | None -> ()
      done
    end
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

(* Fold one access into its cell's digest, found by indexing the
   register's log row with the cell.  A first touch appends the cell's
   key, [reg lsl 32 lor cell], which seeds its digest.  [on_access]
   fires after the digest update, in access-log order. *)
let log_access sim reg cell seq =
  let row = sim.log_slot.(reg) in
  let d = sim.dig in
  let i = row.(cell) in
  let i =
    if i >= 0 then begin
      d.Hashing.hi <- Int_vec.get sim.dig_hi i;
      d.Hashing.lo <- Int_vec.get sim.dig_lo i;
      Hashing.feed d seq;
      Int_vec.set sim.dig_hi i d.Hashing.hi;
      Int_vec.set sim.dig_lo i d.Hashing.lo;
      i
    end
    else begin
      let i = Int_vec.length sim.log_keys in
      let key = (reg lsl 32) lor cell in
      row.(cell) <- i;
      Int_vec.push sim.log_keys key;
      Hashing.reset d;
      Hashing.feed d key;
      Hashing.feed d seq;
      Int_vec.push sim.dig_hi d.Hashing.hi;
      Int_vec.push sim.dig_lo d.Hashing.lo;
      i
    end
  in
  match sim.on_access with Some f -> f ~slot:i ~reg ~cell ~seq | None -> ()

(* Commutative combination of the finished per-cell digests. *)
let access_digest sim =
  let acc = ref 0 and d = Hashing.start () in
  for i = 0 to Int_vec.length sim.log_keys - 1 do
    d.Hashing.hi <- Int_vec.get sim.dig_hi i;
    d.Hashing.lo <- Int_vec.get sim.dig_lo i;
    acc := Hashing.combine !acc (Hashing.value d)
  done;
  !acc

(* Stage execution.  The frame is aimed once per packet and each access
   runs its kernel against [Store.array]: no closure is allocated, and
   the kernels themselves (closures built once at [create]) walk no AST
   and allocate nothing.  The cell resolved at arrival is handed to the
   kernel so a resolvable index is hashed once per packet, not twice.
   The asserts pin the returned cell to the arrival-time resolution and
   the packet's pipeline.  Ghost packets (crossbar duplicates, seqs >=
   [dup_base]) never touch state; [dup_base] is [max_int] on the
   no-fault path, so that compare is always-true there. *)
let exec_phase sim =
  let sl = sim.sl in
  let seqs = sl.Slab.seq and cells = sl.Slab.cell and dests = sl.Slab.dest in
  let dones = sl.Slab.done_ and counted = sl.Slab.counted in
  let nf = sl.Slab.nf and na = sl.Slab.na in
  let frame = sim.frame in
  frame.Expr.base <- sl.Slab.fields;
  frame.Expr.len <- nf;
  let exec = sim.kernel.Kernel.exec and stateless = sim.kernel.Kernel.stateless in
  let accesses = sim.accesses and maps = sim.maps and stores = sim.stores in
  let dup_base = sim.dup_base in
  (* stage 0 is address resolution, performed on arrival *)
  for stage = 1 to sim.n_stages - 1 do
    let srow = sim.slots.(stage) in
    let accs = sim.accs_by_stage.(stage) in
    let n_acc = Array.length accs in
    let st_fn = stateless.(stage) in
    for p = 0 to sim.p.k - 1 do
      let pkt = srow.(p) in
      if pkt <> no_pkt then begin
        frame.Expr.off <- pkt * nf;
        st_fn frame;
        let seq = if n_acc > 0 then Array.unsafe_get seqs pkt else dup_base in
        if seq < dup_base then begin
          let store = stores.(p) in
          let ab = pkt * na in
          for i = 0 to n_acc - 1 do
            let acc_id = Array.unsafe_get accs i in
            let reg = accesses.(acc_id).Transform.reg in
            let ai = ab + acc_id in
            let resolved = Array.unsafe_get cells ai in
            let cell = exec.(acc_id) frame (Store.array store ~reg) resolved in
            if cell >= 0 then begin
              assert (resolved < 0 || resolved = cell);
              assert (Array.unsafe_get dests ai = p);
              log_access sim reg cell seq
            end;
            Array.unsafe_set dones ai 1;
            (* release the in-flight pin, as [release_inflight] does *)
            if Array.unsafe_get counted ai <> 0 then begin
              Array.unsafe_set counted ai 0;
              Index_map.decr_inflight maps.(reg) resolved
            end
          done
        end
      end
    done
  done

(* A packet leaves the last stage: the delivery counters, the
   instruments, the exit digest and the [on_exit] hook, which reads
   the user headers in the slab before the slot is recycled. *)
let exit_packet sim now pkt stage p =
  let sl = sim.sl in
  let seq = sl.Slab.seq.(pkt) in
  let latency = now - sl.Slab.time_in.(pkt) in
  let ecn = sl.Slab.ecn.(pkt) <> 0 in
  let fb = pkt * sl.Slab.nf in
  let n_user = sim.config.Config.n_user_fields in
  sim.delivered <- sim.delivered + 1;
  sim.in_flight <- sim.in_flight - 1;
  if ecn then sim.marked <- sim.marked + 1;
  (match sim.ms with Some m -> Metrics.delivered m ~latency ~ecn | None -> ());
  (match sim.tr with
  | Some tr -> Etrace.emit tr ~kind:Etrace.Deliver ~cycle:now ~seq ~stage ~pipe:p ~aux:latency
  | None -> ());
  if sim.first_exit < 0 then sim.first_exit <- now;
  sim.last_exit <- now;
  let ed = sim.ed in
  Hashing.feed ed seq;
  Hashing.feed ed latency;
  for f = 0 to n_user - 1 do
    Hashing.feed ed sl.Slab.fields.(fb + f)
  done;
  (match sim.on_exit with
  | Some f -> f ~seq ~latency ~fields:sl.Slab.fields ~off:fb
  | None -> ());
  Slab.release sl pkt

let movement_phase sim now =
  (* Claims for stateless movers entering each stage next cycle; the
     scratch matrix lives in the sim record so the loop allocates
     nothing. *)
  let claimed = sim.claimed in
  if sim.claims_dirty then begin
    Array.iter (fun row -> Array.fill row 0 (Array.length row) false) claimed;
    sim.claims_dirty <- false
  end;
  let k = sim.p.k in
  (* Downed pipelines take no stateless traffic: pre-claim their slots
     so the crossbar steers around them.  Slots on downed pipelines are
     always empty (spilled on the down edge, nothing admitted since),
     so at most k - n_down movers compete for k - n_down live slots and
     the steering below still always finds a destination. *)
  (match sim.flt with
  | Some f when Fault.any_down f ->
      for s = 0 to sim.n_stages - 1 do
        for p = 0 to k - 1 do
          if Fault.is_down f p then claimed.(s).(p) <- true
        done
      done;
      sim.claims_dirty <- true
  | _ -> ());
  let sl = sim.sl in
  let gks = sl.Slab.gk and dests = sl.Slab.dest and cells = sl.Slab.cell in
  let na = sl.Slab.na in
  let last = sim.n_stages - 1 in
  (let srow = sim.slots.(last) in
   for p = 0 to k - 1 do
     let pkt = srow.(p) in
     if pkt <> no_pkt then begin
       srow.(p) <- no_pkt;
       exit_packet sim now pkt last p
     end
   done);
  for stage = last - 1 downto 0 do
    let srow = sim.slots.(stage) in
    let next = stage + 1 in
    let npkts = sim.t_pkts.(next) and ndescs = sim.t_descs.(next) in
    let accs = sim.accs_by_stage.(next) in
    let crow = claimed.(next) in
    let queue_stateless = sim.stateful_stage.(next) && not sim.p.stateless_priority in
    for p = 0 to k - 1 do
      let pkt = srow.(p) in
      if pkt <> no_pkt then begin
        srow.(p) <- no_pkt;
        let ab = pkt * na in
        let acc_id = first_queued accs gks ab in
        if acc_id >= 0 then begin
          let ai = ab + acc_id in
          Int_vec.push npkts pkt;
          Int_vec.push ndescs
            (pack_transfer ~tag:t_stateful ~dest:(Array.unsafe_get dests ai) ~src:p
               ~cell:(Array.unsafe_get cells ai))
        end
        else if queue_stateless then begin
          (* Invariant 2 disabled: stateless packets take their place
             in the queue like everybody else. *)
          Int_vec.push npkts pkt;
          Int_vec.push ndescs (pack_transfer ~tag:t_queued ~dest:p ~src:p ~cell:(-1))
        end
        else begin
          (* Stateless at [next]: the crossbar steers it to a free
             pipeline, preferring the current one. *)
          let dest =
            if not crow.(p) then p
            else begin
              let d = ref (-1) in
              for q = k - 1 downto 0 do
                if not crow.(q) then d := q
              done;
              !d
            end
          in
          assert (dest >= 0);
          crow.(dest) <- true;
          sim.claims_dirty <- true;
          Int_vec.push npkts pkt;
          Int_vec.push ndescs (pack_transfer ~tag:t_stateless ~dest ~src:p ~cell:(-1))
        end
      end
    done
  done

(* Per-leg loop bookkeeping, serialized into snapshots with the clock
   the leg loop advances (all of it but [visited]).  [sd] digests every
   packet consumed from the source ([track_src] gates the cost to runs
   that can checkpoint), so a resume that replays the source from the
   start can prove it is feeding the same packets. *)
type loop_state = {
  ck : Leg.clock;
  mutable first_arrival : int;
  sd : Hashing.state;
  track_src : bool;
}

let fold_src_digest sd (input : Machine.input) =
  Hashing.feed sd input.Machine.time;
  Hashing.feed sd input.Machine.port;
  let headers = input.Machine.headers in
  Hashing.feed sd (Array.length headers);
  for i = 0 to Array.length headers - 1 do
    Hashing.feed sd headers.(i)
  done

let arrival_phase sim now source st =
  (* Admit up to one packet per pipeline into the address-resolution
     stage; the Naive_single baseline funnels everything into pipeline
     0, and a downed pipeline admits nothing (degraded capacity is
     (k - n_down)/k of ideal by construction).  Both loops admit here;
     no closure captures [entry], so neither ref is boxed. *)
  let max_accept = match sim.p.mode with Naive_single -> 1 | _ -> sim.p.k in
  let entry = ref 0 in
  let admitting = ref true in
  while !admitting do
    (match sim.flt with
    | Some f -> while !entry < max_accept && Fault.is_down f !entry do incr entry done
    | None -> ());
    if !entry >= max_accept then admitting := false
    else
      match Psource.peek source with
      | Some input when input.Machine.time <= now ->
          ignore (Psource.next source : Machine.input option);
          let seq = Psource.consumed source - 1 in
          if st.track_src then fold_src_digest st.sd input;
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
          incr entry
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

(* --- snapshots (mp5-snap/1) ---

   Each section is one function over a {!Codec.t}: it writes the
   machine's fields on an encode and reads them back, each under its
   stated rule, on a decode (see lib/util/codec.mli).  [machine] runs
   the sections in file order; on a decode it builds the machine once
   the params and program sections have named it. *)

let snap_magic = "mp5-snap/1"
let snapshot_magic = snap_magic

exception Resume_mismatch of string

(* Bounds no run reaches.  A transfer descriptor packs a pipeline in 6
   bits, so [k <= 64]; the rest keep a forged field from sizing memory
   or overflowing a cycle count or seq (a FIFO codes a phantom head as
   [-2 - key]). *)
let max_k = 64
let max_capacity = (1 lsl 16) - 1
let max_period = 1 lsl 30
let max_time = 1 lsl 60

let modes = [| Mp5; Static_shard; No_d4; Naive_single; Ideal |]
let rec mode_tag m i = if modes.(i) = m then i else mode_tag m (i + 1)

let threshold io ~what v =
  if C.bool io ~what (v <> None) then
    Some (C.int io ~lo:0 ~hi:max_period ~what (Option.value v ~default:0))
  else None

let params io (p : params) =
  let k = C.int io ~lo:1 ~hi:max_k ~what:"pipeline count" p.k in
  let mode = C.choice io ~n:5 ~what:"snapshot: unknown mode" (mode_tag p.mode 0) in
  let fifo_capacity = C.int io ~lo:1 ~hi:max_capacity ~what:"FIFO capacity" p.fifo_capacity in
  let adaptive_fifos = C.bool io ~what:"adaptive FIFOs" p.adaptive_fifos in
  let remap_period = C.int io ~lo:1 ~hi:max_period ~what:"remap period" p.remap_period in
  let tag, seed =
    match p.shard_init with `Round_robin -> (0, 0) | `Blocked -> (1, 0) | `Random s -> (2, s)
  in
  let shard_init =
    match C.choice io ~n:3 ~what:"snapshot: unknown shard placement" tag with
    | 0 -> `Round_robin
    | 1 -> `Blocked
    | _ -> `Random (C.word io ~what:"shard seed" seed)
  in
  let remap_noise_gate = C.bool io ~what:"remap noise gate" p.remap_noise_gate in
  let stateless_priority = C.bool io ~what:"stateless priority" p.stateless_priority in
  let starvation_threshold = threshold io ~what:"starvation threshold" p.starvation_threshold in
  let ecn_threshold = threshold io ~what:"ECN threshold" p.ecn_threshold in
  if not (C.reading io) then p
  else
    { k; mode = modes.(mode); fifo_capacity; adaptive_fifos; remap_period; shard_init;
      remap_noise_gate; stateless_priority; starvation_threshold; ecn_threshold }

(* Structural digest of the transformed program: resuming under a
   different program would silently misinterpret every serialized cell
   and access id, so the snapshot pins the machine shape its state
   belongs to. *)
let prog_digest (prog : Transform.t) =
  let config = prog.Transform.config in
  let st = Hashing.start () in
  let feed = Hashing.feed st in
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
  Hashing.value st

let program io prog =
  let d = prog_digest prog in
  if C.xword io ~what:"program digest" d <> d then
    raise (Resume_mismatch "snapshot was taken against a different program")

(* [now] is the next cycle to visit, so resuming replays that cycle in
   full.  A progress mark past [now] never happened; the in-flight count
   is checked against the packets the later sections hold. *)
let loop io sim st =
  let ck = st.ck in
  ck.Leg.now <- C.int io ~lo:0 ~hi:max_time ~what:"cycle" ck.Leg.now;
  st.first_arrival <- C.word io ~what:"first arrival" st.first_arrival;
  ck.Leg.last_score <- C.nat io ~what:"progress score" ck.Leg.last_score;
  ck.Leg.last_progress_t <-
    C.xref io ~lo:min_int ~hi:ck.Leg.now ~what:"last progress cycle" ck.Leg.last_progress_t;
  sim.delivered <- C.nat io ~what:"delivered" sim.delivered;
  sim.dropped <- C.nat io ~what:"dropped" sim.dropped;
  sim.dropped_stateless <- C.nat io ~what:"dropped stateless" sim.dropped_stateless;
  sim.marked <- C.nat io ~what:"marked" sim.marked;
  sim.in_flight <- C.xref io ~lo:0 ~hi:max_int ~what:"in flight" sim.in_flight;
  sim.first_exit <- C.int io ~lo:(-1) ~hi:max_time ~what:"first exit" sim.first_exit;
  sim.last_exit <- C.word io ~what:"last exit" sim.last_exit;
  sim.dup_base <- C.nat io ~what:"ghost seq base" sim.dup_base;
  sim.dup_next <- C.xref io ~lo:sim.dup_base ~hi:max_int ~what:"next ghost seq" sim.dup_next

(* The source cursor: packets consumed, the last arrival time and the
   digest of the consumed prefix, which a resume replays. *)
type cursor = { mutable consumed : int; mutable last_time : int }

let source io st cur =
  cur.consumed <- C.int io ~lo:0 ~hi:max_time ~what:"packets consumed" cur.consumed;
  cur.last_time <- C.word io ~what:"last arrival time" cur.last_time;
  st.sd.Hashing.hi <- C.word io ~what:"source digest" st.sd.Hashing.hi;
  st.sd.Hashing.lo <- C.word io ~what:"source digest" st.sd.Hashing.lo

let probability io p =
  let at = C.position io in
  let p = Int64.float_of_bits (C.i64 io ~what:"fault probability" (Int64.bits_of_float p)) in
  if not (Fault.valid_probability p) then C.fail ~at "fault probability %g out of [0, 1]" p;
  p

let fault_event io ~k ~stages (e : Fault.event) =
  let from_ = C.int io ~lo:0 ~hi:Fault.max_cycle ~what:"fault event start" e.Fault.from_ in
  let until_ = C.xref io ~lo:from_ ~hi:Fault.max_cycle ~what:"fault event end" e.Fault.until_ in
  let pipe p = C.index io ~bound:k ~what:"fault pipeline" p in
  let stage s = C.index io ~bound:stages ~what:"fault stage" s in
  let tag, a, b, p =
    match e.Fault.kind with
    | Fault.Pipe_down x -> (0, x, 0, 0.0)
    | Fault.Pipe_up x -> (1, x, 0, 0.0)
    | Fault.Fifo_loss { stage; pipe } -> (2, stage, pipe, 0.0)
    | Fault.Stall { stage; pipe } -> (3, stage, pipe, 0.0)
    | Fault.Xbar_drop p -> (4, 0, 0, p)
    | Fault.Xbar_dup p -> (5, 0, 0, p)
    | Fault.Phantom_delay x -> (6, x, 0, 0.0)
  in
  let kind =
    match C.choice io ~n:7 ~what:"snapshot: unknown fault kind" tag with
    | 0 -> Fault.Pipe_down (pipe a)
    | 1 -> Fault.Pipe_up (pipe a)
    | 2 ->
        let stage = stage a in
        Fault.Fifo_loss { stage; pipe = pipe b }
    | 3 ->
        let stage = stage a in
        Fault.Stall { stage; pipe = pipe b }
    | 4 -> Fault.Xbar_drop (probability io p)
    | 5 -> Fault.Xbar_dup (probability io p)
    | _ ->
        Fault.Phantom_delay
          (C.int io ~lo:0 ~hi:Fault.max_phantom_delay ~what:"phantom delay" a)
  in
  { Fault.from_; until_; kind }

let no_event = { Fault.from_ = 0; until_ = 0; kind = Fault.Pipe_down 0 }

(* A machine keeps a plan only when it has events (see [active_plan]);
   the runtime restarts from the plan, at the saved RNG state, event
   cursor and active windows ({!Fault.codec}). *)
let fault io sim now =
  let k = sim.p.k and stages = sim.n_stages in
  if C.bool io ~what:"fault plan" (sim.flt <> None) then begin
    let plan = Option.value sim.fplan ~default:Fault.empty in
    let seed = C.word io ~what:"fault seed" plan.Fault.seed in
    let at = C.position io in
    (* an event is at least its window, its kind and one payload word *)
    let n = C.count io ~min_bytes:32 ~what:"fault event count" (List.length plan.Fault.events) in
    if n = 0 then C.fail ~at "empty fault plan";
    if C.reading io then begin
      let events = List.init n (fun _ -> fault_event io ~k ~stages no_event) in
      let plan = { Fault.seed; events } in
      sim.fplan <- Some plan;
      sim.flt <- Some (Fault.codec io (Fault.start plan ~k ~stages) ~now)
    end
    else begin
      List.iter (fun e -> ignore (fault_event io ~k ~stages e : Fault.event)) plan.Fault.events;
      ignore (Fault.codec io (Option.get sim.flt) ~now : Fault.t)
    end
  end

let metrics io sim =
  if C.bool io ~what:"metrics" (sim.ms <> None) then
    match sim.ms with
    | Some m -> Metrics.codec io m
    | None ->
        raise
          (Resume_mismatch "snapshot carries metrics; resume with ~metrics to receive them")
  else if sim.ms <> None then
    raise (Resume_mismatch "snapshot has no metrics, but ~metrics was passed")

let store io sim =
  for p = 0 to sim.p.k - 1 do
    for reg = 0 to Array.length sim.config.Config.regs - 1 do
      let a = Store.array sim.stores.(p) ~reg in
      C.ints io ~what:"register cell"
        ~mismatch:"snapshot: register array size does not match the program" a ~pos:0
        ~len:(Array.length a)
    done
  done

(* An access not yet executed holds the guard and cell its packet's
   headers resolve to, as at arrival: the transformer keeps a resolved
   guard's and index's fields unwritten until the access.  A ghost's
   accesses were pre-completed, known false. *)
let resolved_from_headers sim pkt i =
  let sl = sim.sl in
  let ai = (pkt * sl.Slab.na) + i in
  sl.Slab.done_.(ai) <> 0
  || sl.Slab.seq.(pkt) >= sim.dup_base
  ||
  let frame = aim sim pkt in
  header_gk sim frame i = sl.Slab.gk.(ai) && header_cell sim frame i = sl.Slab.cell.(ai)

(* The wire layout of a packet is unchanged from the boxed-record era:
   guard state was already encoded 0/1/2 (now the [gk_*] constants
   verbatim), so slab-era snapshots stay byte-identical.  A decoded
   packet takes a fresh slab slot and enters the decode's seq -> slot
   index.  An access's cell indexes its register ([Atom] reads it
   unchecked) and its destination every per-pipeline row; a pin holds a
   resolved cell.  The packet waits at [stage] on pipeline [pipe], where
   it executes each access of [stage] not known false. *)
let packet io sim ~stage ~pipe pkt =
  let pkt = if C.reading io then Slab.alloc sim.sl else pkt in
  let sl = sim.sl in
  let seq = C.int io ~lo:0 ~hi:max_time ~what:"packet seq" sl.Slab.seq.(pkt) in
  sl.Slab.seq.(pkt) <- seq;
  sl.Slab.time_in.(pkt) <- C.word io ~what:"packet arrival" sl.Slab.time_in.(pkt);
  sl.Slab.ecn.(pkt) <- C.flag io ~what:"packet ECN mark" sl.Slab.ecn.(pkt);
  C.ints io ~what:"packet header field"
    ~mismatch:"snapshot: packet field count does not match the program" sl.Slab.fields
    ~pos:(pkt * sl.Slab.nf) ~len:sl.Slab.nf;
  let ab = pkt * sl.Slab.na in
  for i = 0 to sl.Slab.na - 1 do
    let size = sim.config.Config.regs.(sim.accesses.(i).Transform.reg).Config.size in
    let at = C.position io in
    sl.Slab.gk.(ab + i) <-
      C.choice io ~n:3 ~what:"snapshot: unknown guard state" sl.Slab.gk.(ab + i);
    let cell = C.xref io ~lo:(-1) ~hi:(size - 1) ~what:"access cell" sl.Slab.cell.(ab + i) in
    sl.Slab.cell.(ab + i) <- cell;
    let here = sim.accesses.(i).Transform.stage = stage && sl.Slab.gk.(ab + i) <> gk_false in
    sl.Slab.dest.(ab + i) <-
      C.xref io ~lo:(if here then pipe else 0) ~hi:(if here then pipe else sim.p.k - 1)
        ~what:"access destination pipeline" sl.Slab.dest.(ab + i);
    sl.Slab.done_.(ab + i) <- C.flag io ~what:"access done" sl.Slab.done_.(ab + i);
    if C.reading io && not (resolved_from_headers sim pkt i) then
      C.fail ~at "access %d's guard and cell are not those its packet's headers give" i;
    let at = C.position io in
    let counted = C.flag io ~what:"access pin" sl.Slab.counted.(ab + i) in
    if counted <> 0 && cell < 0 then C.fail ~at "in-flight pin on unresolved access %d" i;
    sl.Slab.counted.(ab + i) <- counted;
    if C.reading io then sl.Slab.pos.(ab + i) <- -1
  done;
  if C.reading io then Int_table.replace sim.dec_slots seq pkt;
  pkt

let queue_kind = function None -> 0 | Some (Logical _) -> 1 | Some (Per_cell _) -> 2

(* A per-cell queue is its cells' FIFOs in ascending cell order, the
   cells whose head may be ready, and its high-water mark.  A recycled
   machine's queue still holds the cell FIFOs it encoded: the decode
   restores into those rather than new ones. *)
let per_cell io sim ~stage ~pipe old fifo =
  let sorted t = Hashtbl.fold (fun c v acc -> (c, v) :: acc) t [] |> List.sort compare in
  let cells = if C.reading io then [||] else Array.of_list (sorted old.pc_cells) in
  (* a cell is its index plus a FIFO of at least two ints *)
  let n = C.count io ~min_bytes:24 ~what:"per-cell queue count" (Array.length cells) in
  let pc =
    if C.reading io then
      { pc_cells = Hashtbl.create (max 8 n); pc_ready = Hashtbl.create (max 8 n); pc_high = 0 }
    else old
  in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let c =
      C.xref io ~lo:(!prev + 1) ~hi:max_int ~what:"per-cell queue cell"
        (if C.reading io then 0 else fst cells.(i))
    in
    prev := c;
    if C.reading io then begin
      Option.iter (Hashtbl.add pc.pc_cells c) (Hashtbl.find_opt old.pc_cells c);
      fifo (cell_fifo sim pc c)
    end
    else fifo (snd cells.(i))
  done;
  let ready =
    C.int_array_in io C.Xref ~lo:0 ~hi:max_int ~what:"ready cell"
      (Array.of_list (List.map fst (sorted pc.pc_ready)))
  in
  pc.pc_high <- C.nat io ~what:"per-cell high-water mark" pc.pc_high;
  if C.reading io then begin
    Array.iter (fun c -> Hashtbl.replace pc.pc_ready c ()) ready;
    sim.fifos.(stage).(pipe) <- Some (Per_cell pc)
  end

(* Each stateful stage input's queue.  A decoded packet waits at the
   stage and pipeline the walk is at; a decoded live phantom's (seq,
   stage, position) is noted for [position_phantoms], since its packet
   may come later in the decode. *)
let queues io sim =
  if C.reading io then begin
    Int_table.clear sim.dec_slots;
    Int_vec.clear sim.dec_phantoms
  end;
  let stage = ref 0 and pipe = ref 0 in
  let data pkt = packet io sim ~stage:!stage ~pipe:!pipe pkt in
  let phantom key pos =
    Int_vec.push sim.dec_phantoms key;
    Int_vec.push sim.dec_phantoms !stage;
    Int_vec.push sim.dec_phantoms pos
  in
  let fifo f = Fifo.codec io f ~data ~phantom in
  for s = 0 to sim.n_stages - 1 do
    for p = 0 to sim.p.k - 1 do
      stage := s;
      pipe := p;
      let q = sim.fifos.(s).(p) in
      let at = C.position io in
      let kind = C.xref io ~lo:0 ~hi:2 ~what:"queue kind" (queue_kind q) in
      if kind <> queue_kind q then
        C.fail ~at "snapshot: queue kind %d at stage %d pipe %d does not match the machine" kind s
          p;
      match q with
      | None -> ()
      | Some (Logical f) -> fifo f
      | Some (Per_cell pc) -> per_cell io sim ~stage:s ~pipe:p pc fifo
    done
  done

(* Element [i] of [v] to write; a reader ignores it (0). *)
let nth io v i = if C.reading io then 0 else Int_vec.get v i

(* A forged transfer descriptor must fail at decode, positioned at the
   descriptor, not as an index error when the resumed run applies it:
   the movement phase only ever queues a known tag, between existing
   pipelines, into a stage past the first, with a queued or stateful
   packet only into a stage that has input queues and at most one
   stateless packet per destination slot. *)
let check_transfer sim ~pos ~stage ~slot_taken desc =
  let k = sim.p.k in
  let tag = desc land 3 and dest = (desc lsr 2) land 63 and src = (desc lsr 8) land 63 in
  if desc < 0 || tag > t_queued then C.fail ~at:pos "transfer descriptor %d: unknown tag" desc;
  if stage = 0 then C.fail ~at:pos "transfer into stage 0";
  if dest >= k then C.fail ~at:pos "transfer destination pipeline %d out of range [0, %d)" dest k;
  if src >= k then C.fail ~at:pos "transfer source pipeline %d out of range [0, %d)" src k;
  if tag = t_stateless then begin
    if slot_taken.(dest) then
      C.fail ~at:pos "second stateless transfer into stage %d pipe %d" stage dest;
    slot_taken.(dest) <- true
  end
  else if sim.fifos.(stage).(dest) = None then
    C.fail ~at:pos "%s transfer into stateless stage %d"
      (if tag = t_stateful then "stateful" else "queued") stage

(* Per stage, the packets the movement phase queued for the next apply
   phase, each after its packed descriptor.  The movement phase packs a
   queued access, and its cell, into a stateful transfer, and only
   there. *)
let transfers io sim =
  let slot_taken = Array.make sim.p.k false in
  for s = 0 to sim.n_stages - 1 do
    let pkts = sim.t_pkts.(s) and descs = sim.t_descs.(s) in
    (* a transfer is its descriptor and a packet of at least 25 bytes *)
    let n = C.count io ~min_bytes:33 ~what:"transfer count" (Int_vec.length pkts) in
    Array.fill slot_taken 0 sim.p.k false;
    for i = 0 to n - 1 do
      let pos = C.position io in
      let desc = C.xword io ~what:"transfer descriptor" (nth io descs i) in
      if C.reading io then check_transfer sim ~pos ~stage:s ~slot_taken desc;
      let pkt = packet io sim ~stage:s ~pipe:((desc lsr 2) land 63) (nth io pkts i) in
      if C.reading io then begin
        let ai = queued_index sim pkt s in
        let cell = if ai < 0 then -1 else sim.sl.Slab.cell.(ai) in
        if (ai >= 0) <> (desc land 3 = t_stateful) || desc lsr 14 <> cell + 1 then
          C.fail ~at:pos "transfer descriptor %d does not match its packet at stage %d" desc s;
        Int_vec.push descs desc;
        Int_vec.push pkts pkt
      end
    done
  done

(* The largest phantom delay the fault plan can add to a delivery. *)
let plan_delay sim =
  match sim.fplan with
  | None -> 0
  | Some plan ->
      List.fold_left
        (fun m (e : Fault.event) ->
          match e.Fault.kind with Fault.Phantom_delay d -> max m d | _ -> m)
        0 plan.Fault.events

(* A pending phantom delivery.  It was scheduled at an arrival before
   [now] for a stage ahead, so it is due between [now] and the pipeline
   depth plus the plan's delay after it.  Its destination must be a
   stateful stage's queue on an existing pipeline.  The decode schedules
   it with its seq's byte position as the slot: [slot_deliveries] finds
   its packet once every packet section is read. *)
let delivery io sim ~now ~max_cell ~at ~seq ~stage ~dest ~ring ~cell =
  let hi = now + sim.n_stages + plan_delay sim in
  let at = C.xref io ~lo:now ~hi ~what:"phantom delivery cycle" at in
  let seq_at = C.position io in
  let seq = C.xref io ~lo:0 ~hi:max_time ~what:"phantom delivery seq" seq in
  let stage_at = C.position io in
  let stage = C.index io ~bound:sim.n_stages ~what:"phantom delivery stage" stage in
  let dest = C.index io ~bound:sim.p.k ~what:"phantom delivery pipeline" dest in
  let ring = C.index io ~bound:sim.p.k ~what:"phantom delivery ring" ring in
  let cell = C.xref io ~lo:(-1) ~hi:(max_cell - 1) ~what:"phantom delivery cell" cell in
  if C.reading io then begin
    if sim.fifos.(stage).(dest) = None then
      C.fail ~at:stage_at "phantom delivery to stateless stage %d" stage;
    Channel.schedule sim.channel ~at ~seq ~stage ~dest ~ring ~cell ~slot:seq_at
  end

let channel io sim ~now =
  let max_cell =
    Array.fold_left (fun m (r : Config.reg) -> max m r.Config.size) 0 sim.config.Config.regs
  in
  let n = C.count io ~min_bytes:48 ~what:"pending delivery count" (Channel.pending sim.channel) in
  if C.reading io then
    for _ = 1 to n do
      delivery io sim ~now ~max_cell ~at:0 ~seq:0 ~stage:0 ~dest:0 ~ring:0 ~cell:0
    done
  else
    Channel.iter sim.channel (fun ~at ~seq ~stage ~dest ~ring ~cell ~slot:_ ->
        delivery io sim ~now ~max_cell ~at ~seq ~stage ~dest ~ring ~cell)

(* After the packet sections: record each queued live phantom's
   position in its packet's slab column, as its delivery did.  A
   phantom whose packet is not in flight keeps no position; nothing
   will look for it. *)
let position_phantoms sim =
  let ph = sim.dec_phantoms in
  for j = 0 to (Int_vec.length ph / 3) - 1 do
    match Int_table.find sim.dec_slots (Int_vec.get ph (3 * j)) with
    | pkt ->
        let ai = queued_index sim pkt (Int_vec.get ph ((3 * j) + 1)) in
        if ai >= 0 then sim.sl.Slab.pos.(ai) <- Int_vec.get ph ((3 * j) + 2)
    | exception Not_found -> ()
  done

(* Give each pending delivery its packet's slab access index, or -1
   when its seq is doomed.  The decoder scheduled each with its byte
   position as the slot, so a delivery for a seq neither in flight nor
   doomed — one that would wedge its queue — is reported there. *)
let slot_deliveries sim doomed =
  Array.iter (fun seq -> Int_table.replace sim.dec_slots seq (-1)) doomed;
  Channel.set_slots sim.channel (fun ~seq ~stage ~dest ~cell ~slot:at ->
      match Int_table.find sim.dec_slots seq with
      | -1 -> -1
      | pkt ->
          let ai = queued_index sim pkt stage in
          if ai < 0 then
            C.fail ~at "phantom delivery for seq %d at stage %d, where it queues no access" seq
              stage;
          if sim.sl.Slab.dest.(ai) <> dest || sim.sl.Slab.cell.(ai) <> cell then
            C.fail ~at "phantom delivery for seq %d at stage %d is not its access's" seq stage;
          ai
      | exception Not_found ->
          C.fail ~at "phantom delivery for seq %d, which is neither in flight nor dropped" seq)

(* The seqs of pending deliveries whose packet was dropped: the
   deliverer's own test, so a resumed machine suppresses exactly the
   deliveries this one would.  Every packet section is read by now, so
   the decode slots the deliveries here. *)
let doomed io sim =
  let seqs =
    if C.reading io then [||]
    else begin
      let doomed = ref [] and na = sim.sl.Slab.na in
      Channel.iter sim.channel (fun ~at:_ ~seq ~stage:_ ~dest:_ ~ring:_ ~cell:_ ~slot ->
          if delivery_doomed sim.sl ~na ~seq ~slot then doomed := seq :: !doomed);
      Array.of_list (List.sort_uniq compare !doomed)
    end
  in
  let seqs = C.int_array_in io C.Xref ~lo:0 ~hi:max_time ~what:"doomed seq" seqs in
  if C.reading io then begin
    position_phantoms sim;
    slot_deliveries sim seqs
  end

(* Head watches, then the crossbar claims, which persist across the
   boundary: [spawn_dup] reads them during the next apply phase. *)
let watches io sim =
  let mismatch = "snapshot: head watch row size mismatch" in
  Array.iter
    (fun row ->
      C.ints_in io C.Xref ~lo:(-1) ~hi:max_int ~what:"watched head" ~mismatch row ~pos:0
        ~len:(Array.length row))
    sim.hw_key;
  Array.iter
    (fun row -> C.ints io ~what:"head watch start" ~mismatch row ~pos:0 ~len:(Array.length row))
    sim.hw_since;
  Array.iter
    (fun row ->
      C.fixed io ~n:(Array.length row) ~mismatch:"snapshot: claim row size mismatch";
      for i = 0 to Array.length row - 1 do
        row.(i) <- C.int io ~lo:0 ~hi:1 ~what:"crossbar claim" (Bool.to_int row.(i)) = 1
      done)
    sim.claimed;
  let at = C.position io in
  sim.claims_dirty <- C.bool io ~what:"claims dirty" sim.claims_dirty;
  (* claims are cleared before a movement phase only when dirty *)
  if not sim.claims_dirty && Array.exists (Array.exists Fun.id) sim.claimed then
    C.fail ~at "crossbar claims set but not marked dirty"

(* The exit digest, then the access log: per touched (register, cell)
   its packed key, which indexes the log's rows, and its digest. *)
let digests io sim =
  sim.ed.Hashing.hi <- C.word io ~what:"exit digest" sim.ed.Hashing.hi;
  sim.ed.Hashing.lo <- C.word io ~what:"exit digest" sim.ed.Hashing.lo;
  let n_keys = C.count io ~min_bytes:24 ~what:"access log length" (Int_vec.length sim.log_keys) in
  if C.reading io then begin
    Int_vec.reserve sim.log_keys n_keys;
    Int_vec.reserve sim.dig_hi n_keys;
    Int_vec.reserve sim.dig_lo n_keys
  end;
  for i = 0 to n_keys - 1 do
    let at = C.position io in
    let key = C.xword io ~what:"access log key" (nth io sim.log_keys i) in
    let hi = C.word io ~what:"access digest" (nth io sim.dig_hi i) in
    let lo = C.word io ~what:"access digest" (nth io sim.dig_lo i) in
    if C.reading io then begin
      let reg = key lsr 32 and cell = key land 0xFFFFFFFF in
      if reg >= Array.length sim.log_slot || cell >= Array.length sim.log_slot.(reg) then
        C.fail ~at "access log key %d outside the register file" key;
      sim.log_slot.(reg).(cell) <- i;
      Int_vec.push sim.log_keys key;
      Int_vec.push sim.dig_hi hi;
      Int_vec.push sim.dig_lo lo
    end
  done

(* Serialize the machine at a top-of-cycle boundary, or rebuild one.
   Slots are not serialized: the movement phase empties every one of
   them each cycle, so at the boundary all in-flight packets sit in
   FIFOs or transfer buffers.  [p] and [prog] are the machine's params
   and program on an encode; on a decode the program to check against,
   and [make] builds the machine for the params read. *)
let machine io ~p ~prog ~make st cur =
  C.tag io 1 ~what:"params section";
  let p = params io p in
  C.tag io 2 ~what:"program section";
  program io prog;
  let sim = make p in
  C.tag io 3 ~what:"loop section";
  loop io sim st;
  C.tag io 4 ~what:"source section";
  source io st cur;
  C.tag io 5 ~what:"fault section";
  fault io sim st.ck.Leg.now;
  C.tag io 6 ~what:"metrics section";
  metrics io sim;
  C.tag io 7 ~what:"store section";
  store io sim;
  C.tag io 8 ~what:"index map section";
  Array.iteri (fun r m -> sim.dec_pins.(r) <- Index_map.codec io m) sim.maps;
  C.tag io 9 ~what:"queue section";
  queues io sim;
  C.tag io 10 ~what:"transfer section";
  transfers io sim;
  C.tag io 11 ~what:"channel section";
  channel io sim ~now:st.ck.Leg.now;
  C.tag io 12 ~what:"doomed section";
  doomed io sim;
  C.tag io 13 ~what:"watch section";
  watches io sim;
  C.tag io 14 ~what:"digest section";
  digests io sim;
  C.tag io 15 ~what:"end marker";
  sim

let encode_into io sim st source =
  let cur = { consumed = Psource.consumed source; last_time = Psource.last_time source } in
  ignore (machine io ~p:sim.p ~prog:sim.prog ~make:(fun _ -> sim) st cur : sim)

let encode sim st source =
  let t0 = span_start sim in
  let snap = C.encode ~magic:snap_magic (fun io -> encode_into io sim st source) in
  mark sim Prof.Checkpoint t0;
  snap

(* --- the cycle loop, shared by [run], [run_source] and [resume] --- *)

(* The leg's cycle as a function of the cycle number: the phase
   sequence of §3, with a profiler span around each phase.  It runs
   everything but the remap boundary, which [node_step] owns.  Built
   once per leg, after a resume has decoded the machine; the phantom
   deliverer is built with it. *)
let make_cycle sim source st =
  let clock = ref 0 in
  let deliver = phantom_deliverer sim clock in
  fun t ->
    (match sim.mon with
    | Some mon when Monitor.due mon ~now:t -> monitor_phase sim mon t
    | _ -> ());
    (match sim.flt with
    | Some f ->
        (match sim.pf with
        | Some pf when Fault.next_edge f <= t -> Prof.instant pf Prof.Fault
        | _ -> ());
        fault_edges sim f t
    | None -> ());
    (match sim.ms with Some m -> Metrics.on_cycle m | None -> ());
    let t0 = span_start sim in
    clock := t;
    Channel.drain sim.channel ~now:t deliver;
    let t0 = lap sim Prof.Deliver t0 in
    apply_transfers sim t;
    let t0 = lap sim Prof.Apply t0 in
    arrival_phase sim t source st;
    let t0 = lap sim Prof.Source t0 in
    pop_phase sim t;
    let t0 = lap sim Prof.Pop t0 in
    let t0 =
      match sim.ms with
      | Some m ->
          metrics_sweep sim m;
          lap sim Prof.Sweep t0
      | None -> t0
    in
    exec_phase sim;
    let t0 = lap sim Prof.Exec t0 in
    movement_phase sim t;
    ignore (lap sim Prof.Movement t0 : int)

(* Remap boundaries fall every [remap_period] cycles after the first
   arrival, in every run and on every fabric node. *)
let remap_due sim st t =
  sim.p.remap_period > 0 && t > st.first_arrival
  && (t - st.first_arrival) mod sim.p.remap_period = 0

(* --- one switch as the leg loop's target ---

   A node is one switch: its machine, loop state and source, and the
   cycle function built over them.  Inside a fabric ([lib/fabric]) the
   source is a live queue the driver fills ([node_inject]) and the
   fabric is the leg loop's target, stepping its nodes in lock step; a
   switch run alone is the target itself, over the caller's source,
   its queue unused.  Either way a cycle is [node_step], so a
   one-switch fabric fed the same packets at the same cycles is
   bit-identical to [Sim.run]. *)
type node = {
  nd_sim : sim;
  nd_st : loop_state;
  nd_q : Machine.input Queue.t;
  nd_src : Psource.t;
  nd_cycle : int -> unit;
}

let make_node sim st q src =
  { nd_sim = sim; nd_st = st; nd_q = q; nd_src = src; nd_cycle = make_cycle sim src st }

(* One machine cycle, then the remap boundary if one falls at [now].
   Remap boundaries are the profiler's epoch marks: GC counters are
   sampled there, never per cycle.  [now + 1] is a fabric node's clock,
   which its snapshot frame records; a switch's leg loop sets its own. *)
let node_step node ~now =
  let sim = node.nd_sim in
  node.nd_cycle now;
  if remap_due sim node.nd_st now then begin
    let t0 = span_start sim in
    remap_phase sim now;
    mark sim Prof.Remap t0;
    match sim.pf with Some pf -> Prof.gc_sample pf | None -> ()
  end;
  node.nd_st.ck.Leg.now <- now + 1

(* The first cycle after an idle [now] at which the machine changes on
   its own: a phantom delivery (a dropped packet's drains as a no-op),
   the next remap boundary, or a fault-plan edge (a pipeline coming
   back up, a window opening). *)
let node_next_event node ~now =
  let sim = node.nd_sim in
  let e = Channel.next_due sim.channel in
  let e = match sim.flt with Some f -> Int.min e (Fault.next_edge f) | None -> e in
  let period = sim.p.remap_period in
  if period > 0 then Int.min e (now + period - ((now - node.nd_st.first_arrival) mod period))
  else e

let switch =
  {
    Leg.clock = (fun nd -> nd.nd_st.ck);
    live = (fun nd -> nd.nd_sim.in_flight > 0 || Option.is_some (Psource.peek nd.nd_src));
    busy = (fun nd -> nd.nd_sim.in_flight > 0);
    step = (fun nd now -> node_step nd ~now);
    score = (fun nd -> nd.nd_sim.delivered + nd.nd_sim.dropped + Psource.consumed nd.nd_src);
    next_event =
      (fun nd now ->
        match Psource.peek nd.nd_src with
        | Some input -> Int.min input.Machine.time (node_next_event nd ~now)
        | None -> max_int);
    encode = (fun nd -> encode nd.nd_sim nd.nd_st nd.nd_src);
    parked = Leg.parking ();
  }

let fresh_loop_state ~start ~track_src =
  let ck = { Leg.now = start; last_score = 0; last_progress_t = start; visited = 0 } in
  { ck; first_arrival = start; sd = Hashing.start (); track_src }

(* A drained leg's counters, store and digests.  The throughput is the
   output rate over the input rate (first to last arrival), capped at 1.
   A run in which no packet exits has no exit span: it reports 0
   cycles. *)
let finish_summary sim st source =
  let input_span = Psource.last_time source - st.first_arrival + 1 in
  let output_span = if sim.first_exit < 0 then 1 else sim.last_exit - sim.first_exit + 1 in
  let normalized_throughput =
    if sim.delivered = 0 then 0.0
    else
      min 1.0
        (float_of_int sim.delivered *. float_of_int input_span
        /. (float_of_int (Psource.consumed source) *. float_of_int output_span))
  in
  {
    s_delivered = sim.delivered;
    s_dropped = sim.dropped;
    s_dropped_stateless = sim.dropped_stateless;
    s_marked = sim.marked;
    s_cycles = (if sim.first_exit < 0 then 0 else sim.last_exit - st.first_arrival + 1);
    s_input_span = input_span;
    s_normalized_throughput = normalized_throughput;
    s_max_queue = max_queue_depth sim;
    s_packets = Psource.consumed source;
    s_store = merge_stores sim;
    s_digests = { dg_exits = Hashing.value sim.ed; dg_access = access_digest sim };
  }

(* A switch's leg: the leg loop, then, on a drain, the summary.  The
   loop ends as soon as nothing is in flight, which can leave phantom
   deliveries pending in the channel, all of them for packets dropped
   upstream (a live packet keeps the loop running past every delivery
   it scheduled).  They are drained into the suppressed-delivery
   accounting so phantom conservation holds, and the monitor makes one
   final full check, so a run that ends between epochs is still
   verified in its terminal state. *)
let leg ~what ?checkpoint_every ?on_checkpoint ?heartbeat_every ?on_heartbeat ?stop ?cycle_budget
    sim st source =
  let nd = make_node sim st (Queue.create ()) source in
  match
    Leg.run switch ~what ?prof:sim.pf ?cycle_budget ?stop ?checkpoint_every ?on_checkpoint
      ?heartbeat_every ?on_heartbeat nd
  with
  | Some snap -> Suspended snap
  | None ->
      (match (sim.ms, sim.tr) with
      | None, None -> ()
      | _ ->
          let rec flush () =
            let at = Channel.next_due sim.channel in
            if at < max_int then begin
              Channel.drain sim.channel ~now:at (fun ~seq ~stage ~dest ~ring:_ ~cell:_ ~slot:_ ->
                  (match sim.ms with Some m -> Metrics.phantom_doomed m | None -> ());
                  match sim.tr with
                  | Some tr ->
                      Etrace.emit tr ~kind:Etrace.Phantom_deliver ~cycle:at ~seq ~stage ~pipe:dest
                        ~aux:1
                  | None -> ());
              flush ()
            end
          in
          flush ());
      (match sim.mon with Some mon -> monitor_phase sim mon st.ck.Leg.now | None -> ());
      Completed (finish_summary sim st source)

(* --- entry points --- *)

(* The one path from a fresh source to a leg, shared by [run_source]
   and [run]: validate, build the machine, attach the per-packet hooks,
   drain.  [loop] is accepted and has no effect. *)
let stream ?loop:(_ : loop option) ?metrics ?events ?fault ?monitor ?prof
    ?checkpoint_every ?on_checkpoint ?heartbeat_every ?on_heartbeat ?stop ?cycle_budget
    ~on_exit ~on_access params prog source =
  let start_time =
    match Psource.peek source with
    | Some i -> i.Machine.time
    | None -> invalid_arg "Sim.run_source: empty source"
  in
  if Psource.consumed source > 0 then
    invalid_arg "Sim.run_source: source already partially consumed";
  let sim = create ?metrics ?events ?fault ?monitor ?prof params prog in
  sim.on_exit <- on_exit;
  sim.on_access <- on_access;
  (* Ghost packets (crossbar duplicates, fault plans only) take seqs
     from the source length up, so they never collide with trace seqs;
     with the length unknown they are reserved far above any realistic
     stream. *)
  if Option.is_some sim.flt then begin
    let base = Option.value (Psource.total_hint source) ~default:(1 lsl 40) in
    sim.dup_base <- base;
    sim.dup_next <- base
  end;
  let st =
    fresh_loop_state ~start:start_time
      ~track_src:(checkpoint_every <> None || cycle_budget <> None || stop <> None)
  in
  leg ~what:"Sim.run_source" ?checkpoint_every ?on_checkpoint ?heartbeat_every ?on_heartbeat ?stop
    ?cycle_budget sim st source

let run_source = stream ~on_exit:None ~on_access:None

(* A streamed run over the array with two collectors on the per-packet
   hooks.  They push into flat int vectors reserved up front: exits as
   seqs, latencies and [n_user] header words each, accesses as
   (access-log slot, seq) pairs, reserved for each access at most once
   per packet.  Nothing is allocated per packet while the run lasts; the
   result's lists are built once, after it. *)
let run ?loop ?metrics ?events ?fault ?monitor ?prof params prog trace =
  let n = Array.length trace in
  if n = 0 then invalid_arg "Sim.run: empty trace";
  let width = prog.Transform.config.Config.n_user_fields in
  let exit_seqs = Int_vec.create () and exit_lats = Int_vec.create () in
  let exit_fields = Int_vec.create () in
  Int_vec.reserve exit_seqs n;
  Int_vec.reserve exit_lats n;
  Int_vec.reserve exit_fields (n * width);
  let on_exit ~seq ~latency ~fields ~off =
    Int_vec.push exit_seqs seq;
    Int_vec.push exit_lats latency;
    for f = off to off + width - 1 do
      Int_vec.push exit_fields fields.(f)
    done
  in
  (* The machine is fresh, so its access-log slots count up from 0 and
     the collector sees each first touch: a slot one past the keys
     recorded so far is a new cell. *)
  let acc_keys = Int_vec.create () and acc_log = Int_vec.create () in
  Int_vec.reserve acc_log (2 * n * Array.length prog.Transform.accesses);
  let on_access ~slot ~reg ~cell ~seq =
    if slot = Int_vec.length acc_keys then Int_vec.push acc_keys ((reg lsl 32) lor cell);
    Int_vec.push acc_log slot;
    Int_vec.push acc_log seq
  in
  match
    stream ?loop ?metrics ?events ?fault ?monitor ?prof ~on_exit:(Some on_exit)
      ~on_access:(Some on_access) params prog (Psource.of_array trace)
  with
  | Suspended _ -> assert false
  | Completed s ->
      let headers_out = ref [] and exit_order = ref [] and latencies = ref [] in
      for i = Int_vec.length exit_seqs - 1 downto 0 do
        let seq = Int_vec.get exit_seqs i in
        headers_out := (seq, Int_vec.sub exit_fields (i * width) width) :: !headers_out;
        exit_order := seq :: !exit_order;
        latencies := (seq, Int_vec.get exit_lats i) :: !latencies
      done;
      {
        delivered = s.s_delivered;
        dropped = s.s_dropped;
        dropped_stateless = s.s_dropped_stateless;
        marked = s.s_marked;
        cycles = s.s_cycles;
        input_span = s.s_input_span;
        normalized_throughput = s.s_normalized_throughput;
        max_queue = s.s_max_queue;
        store = s.s_store;
        digests = s.s_digests;
        headers_out = !headers_out;
        access_seqs = Machine.access_table ~size:(Int_vec.length acc_keys) acc_keys acc_log;
        exit_order = !exit_order;
        latencies = !latencies;
      }

(* Exact equality of two results, for the differential harnesses that
   hold instrumented, bare and resumed runs to one another.
   Hashtables are compared by sorted contents, not structurally (bucket
   layout is an implementation detail). *)
let results_equal (a : result) (b : result) =
  let tbl_sorted t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare in
  a.delivered = b.delivered && a.dropped = b.dropped
  && a.dropped_stateless = b.dropped_stateless
  && a.marked = b.marked && a.cycles = b.cycles && a.input_span = b.input_span
  && a.normalized_throughput = b.normalized_throughput
  && a.max_queue = b.max_queue
  && Store.equal a.store b.store
  && a.digests = b.digests
  && a.headers_out = b.headers_out && a.exit_order = b.exit_order
  && a.latencies = b.latencies
  && tbl_sorted a.access_seqs = tbl_sorted b.access_seqs

(* [into], a suspended machine (a switch's, or a retired fabric
   node's), when it can stand in for [create params prog] in
   [decode_machine]: the same program (physically, so the kernels are
   the ones [create] would build) and the snapshot's params.  It is
   reset to what [create] leaves in every part the decode does not
   overwrite whole, keeping the storage: the channel calendar, slab
   columns, transfer vectors and the access log (only the touched cells
   of its rows are reset); its hooks are unset and it takes the new
   leg's instruments.  The fault runtime, stores, index maps, FIFOs,
   head watches, claims and every counter are overwritten by their
   sections, the decode scratch is emptied where the decode uses it,
   and per-cell queues are rebuilt by [per_cell] around their old cell
   FIFOs. *)
let recycle into ?metrics ?events ?monitor ?prof ~params prog =
  match into with
  | Some sim when sim.prog == prog && sim.p = params ->
      sim.ms <- metrics;
      sim.tr <- events;
      sim.mon <- monitor;
      sim.pf <- prof;
      sim.fplan <- None;
      sim.flt <- None;
      Slab.clear sim.sl;
      Array.iter (fun row -> Array.fill row 0 (Array.length row) no_pkt) sim.slots;
      Channel.clear sim.channel;
      Array.iter Int_vec.clear sim.t_pkts;
      Array.iter Int_vec.clear sim.t_descs;
      for i = 0 to Int_vec.length sim.log_keys - 1 do
        let key = Int_vec.get sim.log_keys i in
        sim.log_slot.(key lsr 32).(key land 0xFFFFFFFF) <- -1
      done;
      Int_vec.clear sim.log_keys;
      Int_vec.clear sim.dig_hi;
      Int_vec.clear sim.dig_lo;
      sim.on_exit <- None;
      sim.on_access <- None;
      sim.on_drop <- None;
      Some sim
  | _ -> None

(* Every decoded index map's in-flight counts must be the pins its
   restored accesses hold, cell by cell, or [decr_inflight] would trip
   partway through the resumed run.  The pins are taken off the counts
   (failing at a count they would take below zero) and put back, so the
   check copies nothing; a count left over is reported at its entry. *)
let check_pins sim =
  let sl = sim.sl and na = sim.sl.Slab.na in
  let bad reg cell =
    C.fail ~at:(sim.dec_pins.(reg) + (8 * cell))
      "index map in-flight count of cell %d of register %d does not match its restored pins" cell
      reg
  in
  let shift ~take =
    for ai = 0 to (sl.Slab.next * na) - 1 do
      if sl.Slab.counted.(ai) <> 0 then begin
        let reg = sim.accesses.(ai mod na).Transform.reg and cell = sl.Slab.cell.(ai) in
        if take && Index_map.inflight sim.maps.(reg) cell = 0 then bad reg cell;
        (if take then Index_map.decr_inflight else Index_map.incr_inflight) sim.maps.(reg) cell
      end
    done
  in
  shift ~take:true;
  Array.iteri
    (fun reg m ->
      for cell = 0 to Index_map.size m - 1 do
        if Index_map.inflight m cell <> 0 then bad reg cell
      done)
    sim.maps;
  shift ~take:false

(* Decode a machine snapshot into a rebuilt [(sim, loop_state)] plus the
   source cursor and last arrival time it expects, shared by [resume]
   and [node_restore] below.  The machine is [into] when {!recycle}
   accepts it, else a fresh one; either way it is decoded the same.
   Source positioning is the caller's business: [resume] replays or
   re-attaches a full source, a fabric node restore attaches a fresh
   live queue pre-positioned at the cursor. *)
let decode_machine ?metrics ?events ?monitor ?prof ?into ~track_src prog io =
  let st = fresh_loop_state ~start:0 ~track_src in
  let cur = { consumed = 0; last_time = 0 } in
  let make params =
    let n_stages = Array.length prog.Transform.config.Config.stages in
    Option.iter (fun e -> raise (Resume_mismatch e)) (metrics_misfit metrics ~n_stages ~k:params.k);
    match recycle into ?metrics ?events ?monitor ?prof ~params prog with
    | Some sim -> sim
    | None -> create ?metrics ?events ?monitor ?prof params prog
  in
  let sim = machine io ~p:(default_params ~k:1) ~prog ~make st cur in
  if C.remaining io <> 0 then C.fail ~at:(C.position io) "snapshot: trailing data after end marker";
  (* At a cycle boundary every in-flight packet sits in a FIFO or a
     transfer buffer (the movement phase empties the slots), and each
     one decoded took a slab slot from an empty slab. *)
  let counted = sim.sl.Slab.next in
  if counted <> sim.in_flight then
    raise
      (Resume_mismatch
         (Printf.sprintf "snapshot inconsistent: %d packets serialized, %d in flight" counted
            sim.in_flight));
  check_pins sim;
  (sim, st, cur.consumed, cur.last_time)

(* Run a snapshot decoder, mapping what it can raise to a
   [resume_error]. *)
let decoding f =
  match f () with
  | v -> Ok v
  | exception Resume_mismatch msg -> Error (Mismatch msg)
  | exception Binio.Corrupt { pos; reason } -> Error (Corrupt (Binio.corrupt_message ~pos ~reason))

(* A resume handed the very string a suspension in this domain returned
   decodes into the machine that suspension parked ([recycle]); any
   other string, or a parked machine [recycle] refuses, into a new one.
   The source is positioned once the decode has succeeded; the leg runs
   outside [decoding], since its own exceptions (a monitor violation,
   the deadlock guard) are not snapshot errors. *)
let resume ?metrics ?events ?monitor ?prof ?checkpoint_every ?on_checkpoint
    ?heartbeat_every ?on_heartbeat ?stop ?cycle_budget ~snapshot prog source =
  (* A resume boundary is a cold point.  Collecting here frees the last
     boundary's snapshot and the garbage the cycle loop promoted before
     they ratchet the heap (OCaml 5.1 does not compact; see sim.mli). *)
  Gc.full_major ();
  let into = Option.map (fun nd -> nd.nd_sim) (Leg.take switch.Leg.parked snapshot) in
  match Binio.of_string ~magic:snap_magic snapshot with
  | Error msg -> Error (Corrupt msg)
  | Ok r -> (
      match
        decoding (fun () ->
            decode_machine ?metrics ?events ?monitor ?prof ?into ~track_src:true prog
              (C.reader r))
      with
      | Error e -> Error e
      | Ok (sim, st, consumed, _) -> (
          match Leg.position source ~consumed ~digest:st.sd ~fold:fold_src_digest ~what:"source"
          with
          | Error msg -> Error (Mismatch msg)
          | Ok () ->
              Ok
                (leg ~what:"Sim.resume" ?checkpoint_every ?on_checkpoint ?heartbeat_every
                   ?on_heartbeat ?stop ?cycle_budget sim st source)))

(* mp5bench compares array runs with streamed ones through this
   projection. *)
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
    s_digests = r.digests;
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

(* --- fabric nodes (lib/fabric): fed by a live queue source, whose
   cursor [node_inject] derives local seqs from --- *)

let fabric_node ~on_exit ~on_drop ?consumed ?last_time sim st =
  sim.on_exit <- Some on_exit;
  sim.on_drop <- Some on_drop;
  let q = Queue.create () in
  make_node sim st q (Psource.of_queue ?consumed ?last_time q)

let node_create ~anchor ~on_exit ~on_drop params prog =
  let st = fresh_loop_state ~start:anchor ~track_src:false in
  fabric_node ~on_exit ~on_drop (create params prog) st

(* Sequence numbers are assigned in admission order, which for a queue
   source is push order, so the local seq of a pushed packet is known at
   push time: its 0-based position in the overall push stream. *)
let node_next_seq node =
  Psource.consumed node.nd_src + Psource.buffered node.nd_src + Queue.length node.nd_q

let node_inject node input =
  let seq = node_next_seq node in
  Queue.push input node.nd_q;
  seq

let node_in_flight node = node.nd_sim.in_flight

(* Every packet inside the machine holds a slab slot, and a released
   slot's seq is -1, so the live slots name the in-flight packets.  A
   restored slot whose seq was forged negative reads as released and
   leaves a -1 entry behind, which sorts first. *)
let node_machine_seqs node =
  let sim = node.nd_sim in
  let sl = sim.sl in
  let seqs = Array.make sim.in_flight (-1) in
  let j = ref 0 in
  for slot = 0 to sl.Slab.next - 1 do
    let seq = sl.Slab.seq.(slot) in
    if seq >= 0 && !j < sim.in_flight then begin
      seqs.(!j) <- seq;
      incr j
    end
  done;
  Array.sort Int.compare seqs;
  seqs

let node_backlog node = Queue.length node.nd_q + Psource.buffered node.nd_src

(* Injected-but-unadmitted packets in admission order: the lookahead
   slot first, then the ingress queue.  What a fabric snapshot records
   so a restored node can be re-injected the exact backlog. *)
let node_iter_pending node f =
  (match Psource.lookahead node.nd_src with Some x -> f x | None -> ());
  Queue.iter f node.nd_q

let node_delivered node = node.nd_sim.delivered
let node_dropped node = node.nd_sim.dropped
let node_max_queue node = max_queue_depth node.nd_sim
let node_access_digest node = access_digest node.nd_sim
let node_store node = merge_stores node.nd_sim

let node_encode io node =
  C.framed io ~magic:snap_magic (fun io -> encode_into io node.nd_sim node.nd_st node.nd_src)

let node_restore ?into ~on_exit ~on_drop io prog =
  let into = match into with Some nd -> Some nd.nd_sim | None -> None in
  let decoded = ref None in
  match
    decoding (fun () ->
        C.framed io ~magic:snap_magic (fun io ->
            decoded := Some (decode_machine ?into ~track_src:false prog io));
        Option.get !decoded)
  with
  | Error e -> Error e
  | Ok (sim, st, consumed, last_time) ->
      Ok (fabric_node ~on_exit ~on_drop ~consumed ~last_time sim st)
