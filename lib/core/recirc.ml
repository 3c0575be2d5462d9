module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Store = Mp5_banzai.Store
module Machine = Mp5_banzai.Machine

type result = {
  delivered : int;
  dropped : int;
  cycles : int;
  input_span : int;
  normalized_throughput : float;
  recirculations : int;
  avg_recirculations : float;
  store : Store.t;
  headers_out : (int * int array) list;
  access_seqs : (int * int, int list) Hashtbl.t;
  exit_order : int list;
}

type pending = {
  acc : Transform.access;
  cell : int;       (* resolved on first admission; -1 = resolve at stage *)
}

type packet = {
  seq : int;
  time_in : int;
  fields : int array;
  mutable todo : pending list;     (* stage order *)
  mutable recircs : int;
}

let resolve_cell ~tables (map : Index_map.t) fields (acc : Transform.access) =
  match acc.Transform.index with
  | Transform.I_resolved idx ->
      let size = Index_map.size map in
      let v = Expr.eval ~tables ~fields ~state:None idx in
      ((v mod size) + size) mod size
  | Transform.I_unresolved -> -1

(* Home pipeline of a pending access under the static placement. *)
let home maps (p : pending) =
  let map = maps.(p.acc.Transform.reg) in
  Index_map.pipeline_of map (if p.cell >= 0 then p.cell else 0)

let run ~k ?(shard_seed = 1) ?(sharding = `Array) ?(port_buffer = 1024) (prog : Transform.t)
    trace =
  if Array.length trace = 0 then invalid_arg "Recirc.run: empty trace";
  let config = prog.Transform.config in
  let n_stages = Array.length config.Config.stages in
  let rng = Mp5_util.Rng.create shard_seed in
  (* Current-generation switches have no per-index sharding machinery: a
     register array normally lives whole inside one pipeline (§2.3, "no
     state sharing between pipelines") — the [`Array] granularity, with
     arrays placed on random pipelines at configuration time.  [`Cell]
     models re-circulation layered under MP5's static per-index sharding
     ("re-circulation to access a state in a different pipeline" over the
     sharded layout, §4.3.2). *)
  let maps =
    Array.mapi
      (fun r (reg : Config.reg) ->
        match sharding with
        | `Array ->
            Index_map.create ~k ~reg:r ~size:reg.Config.size ~sharded:false
              ~pinned_to:(Mp5_util.Rng.int rng k) ~init:`Round_robin
        | `Cell ->
            Index_map.create ~k ~reg:r ~size:reg.Config.size
              ~sharded:prog.Transform.sharded.(r)
              ~pinned_to:
                (match Config.stage_of_reg config r with Some s -> s mod k | None -> 0)
              ~init:(`Random rng))
      config.Config.regs
  in
  let stores = Array.init k (fun _ -> Store.create config) in
  (* Admission queues: re-circulated packets first, then fresh arrivals. *)
  let recirc_q = Array.init k (fun _ -> Queue.create ()) in
  let access_seqs : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let log_access reg cell seq =
    let key = (reg, cell) in
    let prev = try Hashtbl.find access_seqs key with Not_found -> [] in
    Hashtbl.replace access_seqs key (seq :: prev)
  in
  (* In-flight passes: (exit_cycle, pipeline) -> packets admitted, with
     their per-stage access events handled as the packet reaches each
     stage. *)
  let in_pipe : (int * packet) list array = Array.make k [] in
  (* [in_pipe.(p)] holds (admission_cycle, packet), newest first. *)
  let delivered = ref 0 in
  let dropped = ref 0 in
  let recirculations = ref 0 in
  let exits = ref [] in
  let first_exit = ref (-1) in
  let last_exit = ref 0 in
  let cursor = ref 0 in
  let in_flight = ref 0 in
  let n = Array.length trace in
  let now = ref trace.(0).Machine.time in
  let first_arrival = !now in
  let final_pass pipeline pkt = List.for_all (fun p -> home maps p = pipeline) pkt.todo in
  let tables = config.Config.tables in
  let guard_passes fields (acc : Transform.access) =
    match acc.Transform.atom.Atom.guard with
    | None -> true
    | Some g -> Expr.truthy (Expr.eval ~tables ~fields ~state:None g)
  in
  (* Per-pipeline arrival queues: each input port buffers independently
     (§2.3's static port-to-pipeline mapping), so a backlogged pipeline
     does not block ports mapped elsewhere. *)
  let arrival_q = Array.init k (fun _ -> Queue.create ()) in
  while !cursor < n || !in_flight > 0 do
    let t = !now in
    (* Move due arrivals into their port's queue. *)
    while !cursor < n && trace.(!cursor).Machine.time <= t do
      let input = trace.(!cursor) in
      let seq = !cursor in
      incr cursor;
      incr in_flight;
      let p = ((input.Machine.port mod k) + k) mod k in
      let fields = Array.make (Array.length config.Config.fields) 0 in
      Array.blit input.Machine.headers 0 fields 0
        (min (Array.length input.Machine.headers) config.Config.n_user_fields);
      let todo =
        Array.to_list prog.Transform.accesses
        |> List.map (fun acc ->
               { acc; cell = resolve_cell ~tables maps.(acc.Transform.reg) fields acc })
      in
      (* Finite ingress buffers: a saturated pipeline tail-drops. *)
      if Queue.length arrival_q.(p) >= port_buffer then begin
        incr dropped;
        decr in_flight
      end
      else Queue.push { seq; time_in = t; fields; todo; recircs = 0 } arrival_q.(p)
    done;
    (* Admission: one packet per pipeline per cycle, re-circulations first. *)
    for p = 0 to k - 1 do
      if not (Queue.is_empty recirc_q.(p)) then
        in_pipe.(p) <- (t, Queue.pop recirc_q.(p)) :: in_pipe.(p)
      else if not (Queue.is_empty arrival_q.(p)) then
        in_pipe.(p) <- (t, Queue.pop arrival_q.(p)) :: in_pipe.(p)
    done;
    (* Stage execution: every in-flight packet is at stage (t - admission).
       Process pipelines in order, packets oldest-first for determinism. *)
    for p = 0 to k - 1 do
      let still = ref [] in
      List.iter
        (fun (t0, pkt) ->
          let stage = t - t0 in
          let final = final_pass p pkt in
          if stage < n_stages then begin
            (* Stateless ops (header write-back) only on the final pass. *)
            if final then
              List.iter
                (fun op -> Atom.exec_stateless ~tables ~fields:pkt.fields op)
                config.Config.stages.(stage).Config.stateless;
            (* Maximal program-order prefix of pending accesses local to
               this pipeline and due at this stage. *)
            (match pkt.todo with
            | pending :: rest
              when pending.acc.Transform.stage = stage && home maps pending = p ->
                let atom = pending.acc.Transform.atom in
                let reg_array = Store.array stores.(p) ~reg:atom.Atom.reg in
                if guard_passes pkt.fields pending.acc then begin
                  let cell = Atom.exec_cell ~tables ~fields:pkt.fields ~reg_array atom in
                  if cell >= 0 then log_access atom.Atom.reg cell pkt.seq
                end;
                pkt.todo <- rest
            | _ -> ());
            still := (t0, pkt) :: !still
          end
          else begin
            (* End of a pass. *)
            match pkt.todo with
            | [] ->
                delivered := !delivered + 1;
                in_flight := !in_flight - 1;
                if !first_exit < 0 then first_exit := t;
                last_exit := t;
                exits :=
                  (pkt.seq, Array.sub pkt.fields 0 config.Config.n_user_fields, t - pkt.time_in)
                  :: !exits
            | pending :: _ ->
                pkt.recircs <- pkt.recircs + 1;
                incr recirculations;
                Queue.push pkt recirc_q.(home maps pending)
          end)
        (List.rev in_pipe.(p));
      in_pipe.(p) <- !still
    done;
    now := t + 1
  done;
  let last_arrival = trace.(n - 1).Machine.time in
  let input_span = last_arrival - first_arrival + 1 in
  let output_span = if !first_exit < 0 then 1 else !last_exit - !first_exit + 1 in
  let normalized_throughput =
    if !delivered = 0 then 0.0
    else
      min 1.0
        (float_of_int !delivered *. float_of_int input_span
        /. (float_of_int n *. float_of_int output_span))
  in
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) access_seqs [] in
  List.iter
    (fun key -> Hashtbl.replace access_seqs key (List.rev (Hashtbl.find access_seqs key)))
    keys;
  let exits = List.rev !exits in
  let merged = Store.create config in
  Array.iteri
    (fun r map ->
      for cell = 0 to Index_map.size map - 1 do
        let p = Index_map.pipeline_of map cell in
        Store.set merged ~reg:r ~idx:cell (Store.get stores.(p) ~reg:r ~idx:cell)
      done)
    maps;
  {
    delivered = !delivered;
    dropped = !dropped;
    cycles = !last_exit - first_arrival + 1;
    input_span;
    normalized_throughput;
    recirculations = !recirculations;
    avg_recirculations = float_of_int !recirculations /. float_of_int (max 1 n);
    store = merged;
    headers_out = List.map (fun (seq, h, _) -> (seq, h)) exits;
    access_seqs;
    exit_order = List.map (fun (seq, _, _) -> seq) exits;
  }
