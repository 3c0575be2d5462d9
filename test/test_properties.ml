(* Property-based tests (QCheck, registered as alcotest cases).

   The central property is the paper's correctness claim quantified over
   programs: for random stateful Domino programs and random line-rate
   traces, the MP5 simulator is functionally equivalent to the logical
   single-pipeline switch — identical final register state, identical
   output headers, zero C1 violations.

   The compiler itself is checked against an independent reference
   interpreter that executes the AST directly with C semantics. *)

module Expr = Mp5_banzai.Expr
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Capability = Mp5_banzai.Capability
module Sim = Mp5_core.Sim
module Switch = Mp5_core.Switch
module Equiv = Mp5_core.Equiv
module Rng = Mp5_util.Rng
open Mp5_domino
module Progen = Mp5_fuzz.Progen
module Interp = Mp5_fuzz.Interp

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)
(* ------------------------------------------------------------------ *)

let limits = Progen.limits
let gen_trace = Progen.trace

let compile_gen seed =
  let src = Progen.generate seed in
  match Compile.compile ~limits src with
  | Ok t -> (src, t)
  | Error e -> QCheck.Test.fail_reportf "generated program failed to compile:\n%s\n%a" src Compile.pp_error e

let prop_compiler_matches_interpreter =
  QCheck.Test.make ~name:"compiled golden machine = reference interpreter" ~count:120
    QCheck.(small_nat)
    (fun seed ->
      let src, t = compile_gen seed in
      let trace = gen_trace ~seed ~k:2 ~n:60 in
      let golden = Machine.run t.Compile.config trace in
      let ref_regs, ref_headers = Interp.interp t.Compile.env trace in
      Array.iteri
        (fun r arr ->
          Array.iteri
            (fun i v ->
              let got = Store.get golden.Machine.store ~reg:r ~idx:i in
              if got <> v then
                QCheck.Test.fail_reportf "program:\n%s\nreg %d[%d]: interp %d, compiled %d" src
                  r i v got)
            arr)
        ref_regs;
      Array.iteri
        (fun p h ->
          if h <> golden.Machine.headers_out.(p) then
            QCheck.Test.fail_reportf "program:\n%s\npacket %d headers differ" src p)
        ref_headers;
      true)

let prop_mp5_equivalent =
  QCheck.Test.make ~name:"MP5 functionally equivalent to single pipeline" ~count:80
    QCheck.(pair small_nat (QCheck.int_range 2 5))
    (fun (seed, k) ->
      let src, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let trace = gen_trace ~seed ~k ~n:400 in
      let golden = Machine.run t.Compile.config trace in
      let r = Sim.run (Sim.default_params ~k) prog trace in
      let rep =
        Equiv.compare ~golden ~n_packets:(Array.length trace) ~store:r.Sim.store
          ~headers_out:r.Sim.headers_out ~access_seqs:r.Sim.access_seqs
          ~exit_order:r.Sim.exit_order ()
      in
      if not (Equiv.equivalent rep) || rep.Equiv.c1_violations > 0 then
        QCheck.Test.fail_reportf "program:\n%s\nk=%d: %s" src k
          (Format.asprintf "%a" Equiv.pp rep);
      true)

let prop_mp5_modes_deliver_everything =
  QCheck.Test.make ~name:"all simulator modes deliver every packet (adaptive FIFOs)" ~count:30
    QCheck.(small_nat)
    (fun seed ->
      let _, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let trace = gen_trace ~seed ~k:3 ~n:200 in
      List.for_all
        (fun mode ->
          let params = { (Sim.default_params ~k:3) with Sim.mode = mode } in
          let r = Sim.run params prog trace in
          r.Sim.delivered = 200 && r.Sim.dropped = 0)
        [ Sim.Mp5; Sim.Static_shard; Sim.No_d4; Sim.Naive_single; Sim.Ideal ])

let prop_transform_invariants =
  QCheck.Test.make ~name:"transformer invariants on random programs" ~count:120
    QCheck.(small_nat)
    (fun seed ->
      let _, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let module T = Mp5_core.Transform in
      let module C = Mp5_banzai.Config in
      (* Stage 0 is the empty address-resolution stage. *)
      let stage0 = prog.T.config.C.stages.(0) in
      let ok0 = stage0.C.atoms = [] && stage0.C.stateless = [] in
      (* Access ids are dense and stage-sorted; sharded arrays resolve. *)
      let ok_ids = ref true and last_stage = ref 0 in
      Array.iteri
        (fun i (a : T.access) ->
          if a.T.acc_id <> i || a.T.stage < !last_stage || a.T.stage < 1 then ok_ids := false;
          last_stage := a.T.stage;
          (match (prog.T.sharded.(a.T.reg), a.T.index) with
          | true, T.I_unresolved -> ok_ids := false
          | _ -> ()))
        prog.T.accesses;
      (* After serialization a stage holds one register array, unless its
         atoms' guards are pairwise mutually exclusive (a packet then
         still accesses at most one array there). *)
      let exclusive (atoms : Mp5_banzai.Atom.stateful list) =
        let excl a b =
          match ((a : Mp5_banzai.Atom.stateful).Mp5_banzai.Atom.guard, (b : Mp5_banzai.Atom.stateful).Mp5_banzai.Atom.guard) with
          | Some ga, Some gb ->
              Mp5_banzai.Simplify.pred (Expr.Binop (Expr.Log_and, ga, gb)) = Expr.Const 0
          | _ -> false
        in
        let rec pairs = function
          | [] -> true
          | a :: rest -> List.for_all (excl a) rest && pairs rest
        in
        pairs atoms
      in
      let ok_serial =
        Array.for_all
          (fun (s : C.stage) ->
            List.length (C.regs_of_stage s) <= 1 || exclusive s.C.atoms)
          prog.T.config.C.stages
      in
      ok0 && !ok_ids && ok_serial)

let prop_finite_fifo_accounting =
  QCheck.Test.make ~name:"finite FIFOs: every packet delivered or dropped" ~count:40
    QCheck.(small_nat)
    (fun seed ->
      let _, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let trace = gen_trace ~seed ~k:4 ~n:400 in
      let params =
        { (Sim.default_params ~k:4) with Sim.fifo_capacity = 2; adaptive_fifos = false }
      in
      let r = Sim.run params prog trace in
      r.Sim.delivered + r.Sim.dropped = 400
      && List.length r.Sim.headers_out = r.Sim.delivered)

let prop_recirc_k1_equivalent =
  QCheck.Test.make ~name:"re-circulation at k=1 degenerates to the single pipeline" ~count:40
    QCheck.(small_nat)
    (fun seed ->
      let src, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let trace = gen_trace ~seed ~k:1 ~n:200 in
      let golden = Machine.run t.Compile.config trace in
      let r = Mp5_core.Recirc.run ~k:1 prog trace in
      let rep =
        Equiv.compare ~golden ~n_packets:200 ~store:r.Mp5_core.Recirc.store
          ~headers_out:r.Mp5_core.Recirc.headers_out
          ~access_seqs:r.Mp5_core.Recirc.access_seqs
          ~exit_order:r.Mp5_core.Recirc.exit_order ()
      in
      if not (Equiv.equivalent rep) then
        QCheck.Test.fail_reportf "program:\n%s\n%s" src (Format.asprintf "%a" Equiv.pp rep);
      true)

let prop_loop_variants_bit_identical =
  (* [~loop] is accepted and has no effect: [Fast] and [Generic] runs of
     a random program are bit-identical, and a checkpoint taken under
     either resumes onto the uninterrupted run's summary (snapshots
     record no loop variant). *)
  QCheck.Test.make ~name:"fast/generic loops resume each other" ~count:100
    QCheck.(small_nat)
    (fun seed ->
      let src, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let k = 2 + (seed mod 4) in
      let trace = gen_trace ~seed ~k ~n:200 in
      let params = Sim.default_params ~k in
      let generic = Sim.run ~loop:Sim.Generic params prog trace in
      let fast = Sim.run ~loop:Sim.Fast params prog trace in
      if not (Sim.results_equal generic fast) then
        QCheck.Test.fail_reportf "~loop:Fast changes the run on:\n%s" src;
      let want = Sim.summary_of_result ~packets:(Array.length trace) generic in
      let resumed loop =
        match
          Sim.run_source ~loop ~cycle_budget:30 params prog
            (Mp5_workload.Packet_source.of_array trace)
        with
        | Sim.Completed s -> s (* finished inside the budget; nothing to resume *)
        | Sim.Suspended snap -> (
            match
              Sim.resume ~snapshot:snap prog (Mp5_workload.Packet_source.of_array trace)
            with
            | Ok (Sim.Completed s) -> s
            | Ok (Sim.Suspended _) -> QCheck.Test.fail_report "resume suspended without a budget"
            | Error _ -> QCheck.Test.fail_report "resume rejected")
      in
      if not (Sim.summary_equal want (resumed Sim.Fast)) then
        QCheck.Test.fail_reportf "fast checkpoint -> resume diverges:\n%s" src;
      if not (Sim.summary_equal want (resumed Sim.Generic)) then
        QCheck.Test.fail_reportf "generic checkpoint -> resume diverges:\n%s" src;
      true)

let prop_sim_deterministic =
  QCheck.Test.make ~name:"simulator runs are deterministic" ~count:25
    QCheck.(small_nat)
    (fun seed ->
      let _, t = compile_gen seed in
      let prog = Mp5_core.Transform.transform ~limits t.Compile.config in
      let trace = gen_trace ~seed ~k:3 ~n:300 in
      let run () = Sim.run (Sim.default_params ~k:3) prog trace in
      let a = run () and b = run () in
      a.Sim.digests = b.Sim.digests && Store.equal a.Sim.store b.Sim.store)

let prop_pretty_roundtrip =
  (* print . parse is a projection: printing a parsed program and parsing
     it again yields the same printed form (and the same compiled
     behaviour, covered by the interpreter property). *)
  QCheck.Test.make ~name:"pretty-printer round trip" ~count:150
    QCheck.(small_nat)
    (fun seed ->
      let src = Progen.generate seed in
      let once = Pretty.program_to_string (Parser.parse src) in
      let twice = Pretty.program_to_string (Parser.parse once) in
      if once <> twice then
        QCheck.Test.fail_reportf "not a fixpoint:\n%s\n----\n%s" once twice;
      true)

(* Random expression generator for direct simplifier checking (the
   program-level property only exercises compiler-shaped expressions). *)
let rec gen_rand_expr rng depth =
  let module E = Expr in
  if depth = 0 then
    match Rng.int rng 3 with
    | 0 -> E.Const (Rng.int rng 21 - 10)
    | 1 -> E.Field (Rng.int rng 4)
    | _ -> E.Const (Rng.int rng 3)
  else
    match Rng.int rng 10 with
    | 0 | 1 -> gen_rand_expr rng 0
    | 2 ->
        let ops =
          [| E.Add; E.Sub; E.Mul; E.Div; E.Mod; E.Bit_and; E.Bit_or; E.Bit_xor; E.Shl;
             E.Shr; E.Eq; E.Ne; E.Lt; E.Le; E.Gt; E.Ge; E.Log_and; E.Log_or |]
        in
        E.Binop (ops.(Rng.int rng 18), gen_rand_expr rng (depth - 1), gen_rand_expr rng (depth - 1))
    | 3 ->
        let ops = [| E.Neg; E.Log_not; E.Bit_not |] in
        E.Unop (ops.(Rng.int rng 3), gen_rand_expr rng (depth - 1))
    | 4 | 5 ->
        E.Ternary
          (gen_rand_expr rng (depth - 1), gen_rand_expr rng (depth - 1), gen_rand_expr rng (depth - 1))
    | 6 -> E.Hash [ gen_rand_expr rng (depth - 1) ]
    | _ ->
        E.Binop
          ( (if Rng.int rng 2 = 0 then E.Add else E.Mul),
            gen_rand_expr rng (depth - 1),
            gen_rand_expr rng 0 )

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplification preserves evaluation" ~count:400
    QCheck.(small_nat)
    (fun seed ->
      let rng = Rng.create (seed + 31337) in
      let e = gen_rand_expr rng 4 in
      let simplified = Mp5_banzai.Simplify.expr e in
      let pred_form = Mp5_banzai.Simplify.pred e in
      List.for_all
        (fun _ ->
          let fields = Array.init 4 (fun _ -> Rng.int rng 64 - 16) in
          let v = Expr.eval ~fields ~state:None e in
          let v' = Expr.eval ~fields ~state:None simplified in
          let tp = Expr.truthy (Expr.eval ~fields ~state:None pred_form) in
          if v <> v' then
            QCheck.Test.fail_reportf "value change:@.%a@.->@.%a@.fields %d %d %d %d: %d vs %d"
              Expr.pp e Expr.pp simplified fields.(0) fields.(1) fields.(2) fields.(3) v v';
          if tp <> Expr.truthy v then
            QCheck.Test.fail_reportf "truthiness change:@.%a@.->@.%a" Expr.pp e Expr.pp
              pred_form;
          true)
        (List.init 25 Fun.id))

let prop_hash_folds_fnv1a =
  (* [hash(...)] with any number of keys is the list FNV-1a of the keys'
     values, however the evaluator folds them; random arguments include
     nested single-key hashes. *)
  QCheck.Test.make ~name:"Expr hash = Hashing.fnv1a of its arguments" ~count:300
    QCheck.(pair small_nat (int_range 0 6))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 4242) in
      let args = List.init n (fun _ -> gen_rand_expr rng 2) in
      let fields = Array.init 4 (fun _ -> Rng.int rng 1_000_000 - 500_000) in
      let vs = List.map (Expr.eval_raw [||] fields None) args in
      let want = Mp5_util.Hashing.fnv1a vs land 0x7FFFFFFF in
      let got = Expr.eval_raw [||] fields None (Expr.Hash args) in
      if got <> want then
        QCheck.Test.fail_reportf "hash of %d args: %d, fnv1a gives %d" n got want;
      true)

let prop_simplify_never_grows =
  QCheck.Test.make ~name:"simplification never grows expressions" ~count:300
    QCheck.(small_nat)
    (fun seed ->
      let rng = Rng.create (seed + 555) in
      let e = gen_rand_expr rng 4 in
      Expr.size (Mp5_banzai.Simplify.expr e) <= Expr.size e)

let prop_one_ring_fifo_model =
  (* A bounded one-ring FIFO behaves like a bounded queue. *)
  QCheck.Test.make ~name:"one-ring Fifo = bounded queue model" ~count:200
    QCheck.(list (QCheck.int_range 0 9))
    (fun ops ->
      let f = Mp5_arch.Fifo.create ~k:1 ~capacity:4 ~adaptive:false in
      let model = Queue.create () in
      List.for_all
        (fun (i, op) ->
          if op < 6 then begin
            let accepted = Mp5_arch.Fifo.push_data f ~ring:0 ~ts:i ~key:i op = `Ok in
            let model_accepts = Queue.length model < 4 in
            if model_accepts then Queue.push op model;
            accepted = model_accepts
          end
          else
            let code = Mp5_arch.Fifo.take f in
            match Queue.take_opt model with
            | None -> code = Mp5_arch.Fifo.empty
            | Some b -> code = b)
        (List.mapi (fun i op -> (i, op)) ops))

(* Positional insert and cancel agree with a FIFO that finds entries by
   key: a reference of per-ring entry lists searched with [List.assoc],
   the way a key directory found them.  Operations pick their position
   from every one ever issued, so stale ones (popped, purged, or a
   dropped push's -1) are exercised as much as live ones; adaptive
   FIFOs grow storage while positions are held.  A quarter of them pair
   one issued position with another's key: a live entry under another
   key is a miss, and the model finds nothing to touch. *)
let prop_fifo_positions_keyed_model =
  QCheck.Test.make ~name:"FIFO positions = keyed model" ~count:300 QCheck.small_nat (fun seed ->
      let module Fifo = Mp5_arch.Fifo in
      let rng = Rng.create (seed + 4242) in
      let k = 1 + Rng.int rng 3 and capacity = 1 + Rng.int rng 3 in
      let adaptive = Rng.int rng 2 = 0 in
      let f = Fifo.create_small ~k ~capacity ~adaptive in
      (* model: per ring, head first, (key, (ts, data or -1, cancelled)) *)
      let rings = Array.make k [] in
      let caps = Array.make k capacity in
      let issued = ref [||] and next = ref 0 and ok = ref true in
      let expect b = if not b then ok := false in
      let live key =
        Array.exists (fun r -> match List.assoc_opt key r with Some _ -> true | None -> false) rings
      in
      let update key g =
        Array.iteri
          (fun i r ->
            rings.(i) <- List.map (fun (k', e) -> if k' = key then (k', g e) else (k', e)) r)
          rings
      in
      let find key = Array.find_map (fun r -> List.assoc_opt key r) rings in
      (* an issued position with its own key, or with another's; the
         model's key is -1 (no entry) for a mismatched pair *)
      let pick () =
        let n = Array.length !issued in
        let key, pos = !issued.(Rng.int rng n) in
        if Rng.int rng 4 > 0 then (key, pos, key)
        else
          let other, _ = !issued.(Rng.int rng n) in
          (other, pos, if other = key then key else -1)
      in
      for _ = 1 to 60 do
        match Rng.int rng 5 with
        | 0 | 1 ->
            let ring = Rng.int rng k and key = !next in
            incr next;
            let pos = Fifo.push_phantom f ~ring ~ts:key ~key in
            if List.length rings.(ring) = caps.(ring) && adaptive then
              caps.(ring) <- 2 * caps.(ring);
            let accepted = List.length rings.(ring) < caps.(ring) in
            expect (accepted = (pos >= 0));
            if accepted then rings.(ring) <- rings.(ring) @ [ (key, (key, -1, false)) ];
            issued := Array.append !issued [| (key, pos) |]
        | 2 when !issued <> [||] ->
            let key, pos, mkey = pick () in
            let v = Rng.int rng 1000 in
            let hit = match find mkey with Some (_, -1, false) -> true | _ -> false in
            expect ((Fifo.insert_data f ~pos ~key v = `Ok) = hit);
            if hit then update mkey (fun (ts, _, c) -> (ts, v, c))
        | 3 when !issued <> [||] ->
            let key, pos, mkey = pick () in
            Fifo.cancel f ~pos ~key;
            if live mkey then update mkey (fun (ts, d, _) -> (ts, d, true))
        | _ ->
            (* purge cancelled heads, then the smallest head timestamp *)
            Array.iteri
              (fun i r ->
                let rec purge = function (_, (_, _, true)) :: tl -> purge tl | r -> r in
                rings.(i) <- purge r)
              rings;
            let best = ref (-1) in
            Array.iteri
              (fun i r ->
                match (r, !best) with
                | [], _ -> ()
                | _, -1 -> best := i
                | (_, (ts, _, _)) :: _, b -> (
                    match rings.(b) with
                    | (_, (bts, _, _)) :: _ when bts <= ts -> ()
                    | _ -> best := i))
              rings;
            let code = Fifo.take f in
            if !best < 0 then expect (code = Fifo.empty)
            else begin
              match rings.(!best) with
              | (key, (_, -1, _)) :: _ -> expect (code = -2 - key)
              | (_, (_, d, _)) :: tl ->
                  expect (code = d);
                  rings.(!best) <- tl
              | [] -> assert false
            end
      done;
      expect (Fifo.length f = Array.fold_left (fun a r -> a + List.length r) 0 rings);
      !ok)

let prop_int_table_model =
  (* Open addressing with backward-shift deletion behaves like Hashtbl;
     a small key range forces probe-chain collisions and deletions in
     the middle of chains. *)
  QCheck.Test.make ~name:"Int_table = Hashtbl model" ~count:200 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 909) in
      let t = Mp5_util.Int_table.create () in
      let h : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let find_opt key =
        match Mp5_util.Int_table.find t key with
        | v -> Some v
        | exception Not_found -> None
      in
      let ok = ref true in
      for _ = 1 to 400 do
        let key = Rng.int rng 48 - 8 in
        match Rng.int rng 4 with
        | 0 | 1 ->
            let v = Rng.int rng 1000 in
            Mp5_util.Int_table.replace t key v;
            Hashtbl.replace h key v
        | 2 ->
            Mp5_util.Int_table.remove t key;
            Hashtbl.remove h key
        | _ -> if find_opt key <> Hashtbl.find_opt h key then ok := false
      done;
      for key = -8 to 40 do
        if find_opt key <> Hashtbl.find_opt h key then ok := false
      done;
      !ok && Mp5_util.Int_table.length t = Hashtbl.length h)

let prop_sort_trace_sorted =
  QCheck.Test.make ~name:"sort_trace orders by (time, port)" ~count:200
    QCheck.(list (pair (QCheck.int_range 0 20) (QCheck.int_range 0 7)))
    (fun pairs ->
      let trace =
        Array.of_list (List.map (fun (t, p) -> { Machine.time = t; port = p; headers = [||] }) pairs)
      in
      let sorted = Machine.sort_trace trace in
      let ok = ref true in
      Array.iteri
        (fun i x ->
          if i > 0 then begin
            let prev = sorted.(i - 1) in
            if
              prev.Machine.time > x.Machine.time
              || (prev.Machine.time = x.Machine.time && prev.Machine.port > x.Machine.port)
            then ok := false
          end)
        sorted;
      !ok && Array.length sorted = Array.length trace)

let prop_expr_eval_in_range =
  (* Every evaluation result is a valid signed 32-bit value. *)
  QCheck.Test.make ~name:"expression evaluation stays in 32-bit range" ~count:300
    QCheck.(triple int int (QCheck.int_range 0 17))
    (fun (a, b, opn) ->
      let op =
        List.nth
          [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Bit_and; Expr.Bit_or;
            Expr.Bit_xor; Expr.Shl; Expr.Shr; Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt;
            Expr.Ge; Expr.Log_and; Expr.Log_or ]
          opn
      in
      let v =
        Expr.eval ~fields:[||] ~state:None
          (Expr.Binop (op, Expr.Const (Expr.norm32 a), Expr.Const (Expr.norm32 b)))
      in
      v >= -2147483648 && v <= 2147483647)

let prop_dist_in_support =
  QCheck.Test.make ~name:"discrete sampling stays in support" ~count:100
    QCheck.(pair (QCheck.int_range 1 40) (QCheck.int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let d = Mp5_util.Dist.skewed ~n ~hot_fraction:0.3 ~hot_mass:0.95 in
      List.for_all (fun _ -> let v = Mp5_util.Dist.sample rng d in v >= 0 && v < n) (List.init 50 Fun.id))

let () =
  let q = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "properties"
    [
      ("compiler", q [ prop_compiler_matches_interpreter ]);
      ( "mp5",
        q
          [
            prop_mp5_equivalent;
            prop_mp5_modes_deliver_everything;
            prop_transform_invariants;
            prop_finite_fifo_accounting;
            prop_recirc_k1_equivalent;
            prop_loop_variants_bit_identical;
            prop_sim_deterministic;
          ] );
      ("pretty", q [ prop_pretty_roundtrip ]);
      ("simplify", q [ prop_simplify_preserves_eval; prop_simplify_never_grows ]);
      ( "structures",
        q [ prop_one_ring_fifo_model; prop_fifo_positions_keyed_model; prop_int_table_model; prop_sort_trace_sorted;
            prop_expr_eval_in_range;
            prop_dist_in_support; prop_hash_folds_fnv1a ] );
    ]
