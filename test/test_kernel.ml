(* Unit tests for the kernel-compilation layer: compiled closures
   ([Expr.compile], [Atom.compile_stateless], [Atom.compile_stateful])
   must be bit-identical to the AST interpreter they replace — same
   values, same side effects, and the same [Invalid_argument] exceptions
   with the same messages, raised lazily at call time.

   The random sweeps are intra-module (expression/atom granularity),
   plus one whole-program check of [Kernel.create]'s wiring: both arms
   of [~compiled] over every app and a slice of generated programs.
   Whole-simulator equivalence over generated programs lives in
   test_differential.ml. *)

module Expr = Mp5_banzai.Expr
module Table = Mp5_banzai.Table
module Atom = Mp5_banzai.Atom
module Rng = Mp5_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixtures ------------------------------------------------------ *)

let n_fields = 6

let tables =
  let t0 = Table.create ~name:"t0" ~arity:1 ~default_action:7 () in
  let t0 = Table.add_exact t0 ~key:[ 3 ] ~action:30 () in
  let t0 = Table.add_exact t0 ~key:[ 5 ] ~action:50 () in
  let t1 = Table.create ~name:"t1" ~arity:2 ~default_action:0 () in
  let t1 = Table.add_exact t1 ~key:[ 1; 2 ] ~action:12 () in
  [| t0; t1 |]

let random_fields ?(n = n_fields) rng =
  Array.init n (fun _ ->
      match Rng.int rng 5 with
      | 0 -> 0
      | 1 -> Rng.int rng 8
      | 2 -> -Rng.int rng 8
      | 3 -> Expr.norm32 (Int32.to_int Int32.max_int - Rng.int rng 3)
      | _ -> Expr.norm32 (Rng.int rng 1_000_000 - 500_000))

(* Random expression generator.  [state] allows [State_val] leaves. *)
let binops =
  [| Expr.Add; Sub; Mul; Div; Mod; Bit_and; Bit_or; Bit_xor; Shl; Shr;
     Eq; Ne; Lt; Le; Gt; Ge; Log_and; Log_or |]

let unops = [| Expr.Neg; Log_not; Bit_not |]

let rec random_expr rng ~state depth =
  if depth = 0 then random_leaf rng ~state
  else
    match Rng.int rng 10 with
    | 0 | 1 -> random_leaf rng ~state
    | 2 | 3 | 4 | 5 ->
        Expr.Binop
          ( Rng.pick rng binops,
            random_expr rng ~state (depth - 1),
            random_expr rng ~state (depth - 1) )
    | 6 -> Expr.Unop (Rng.pick rng unops, random_expr rng ~state (depth - 1))
    | 7 ->
        Expr.Ternary
          ( random_expr rng ~state (depth - 1),
            random_expr rng ~state (depth - 1),
            random_expr rng ~state (depth - 1) )
    | 8 ->
        let arity = 1 + Rng.int rng 3 in
        Expr.Hash (List.init arity (fun _ -> random_expr rng ~state (depth - 1)))
    | _ ->
        let id = Rng.int rng (Array.length tables) in
        let arity = Table.arity tables.(id) in
        Expr.Lookup (id, List.init arity (fun _ -> random_expr rng ~state (depth - 1)))

and random_leaf rng ~state =
  match Rng.int rng (if state then 4 else 3) with
  | 0 -> Expr.Field (Rng.int rng n_fields)
  | 1 -> Expr.Const (Rng.int rng 16 - 4)
  | 2 -> Expr.Const (Expr.norm32 (Int64.to_int (Rng.int64 rng)))
  | _ -> Expr.State_val

(* --- interpreter/compiler comparison ------------------------------- *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let pp_outcome = function
  | Ok v -> string_of_int v
  | Error m -> "Invalid_argument: " ^ m

(* Both engines on the same expression: same value or same exception. *)
let assert_same ?(tables = tables) ~fields ~state e =
  let interp = outcome (fun () -> Expr.eval_raw tables fields state e) in
  let cell = Option.map ref state in
  let compiled =
    match outcome (fun () -> Expr.compile tables ~state:cell e) with
    | Ok k -> outcome (fun () -> k (Expr.frame_of_array fields))
    | Error m -> Error m
  in
  if interp <> compiled then
    Alcotest.failf "engines disagree on %a:@ interp=%s compiled=%s" Expr.pp e
      (pp_outcome interp) (pp_outcome compiled)

let test_random_exprs () =
  let rng = Rng.create 0xbead in
  for _ = 1 to 600 do
    let e = random_expr rng ~state:false (1 + Rng.int rng 4) in
    let fields = random_fields rng in
    assert_same ~fields ~state:None e
  done

let test_random_exprs_with_state () =
  let rng = Rng.create 0xfeed in
  for _ = 1 to 600 do
    let e = random_expr rng ~state:true (1 + Rng.int rng 4) in
    let fields = random_fields rng in
    let state = Some (Expr.norm32 (Rng.int rng 1_000_000 - 500_000)) in
    assert_same ~fields ~state e
  done

(* Edge cases the random sweep is unlikely to pin down exactly. *)
let test_division_by_zero () =
  let fields = [| 0; 7; -7; 1; 0; 0 |] in
  List.iter
    (fun e -> assert_same ~fields ~state:None e)
    [
      Expr.Binop (Div, Const 42, Const 0);
      Expr.Binop (Mod, Const 42, Const 0);
      Expr.Binop (Div, Field 1, Field 0);    (* non-constant zero divisor *)
      Expr.Binop (Mod, Field 2, Field 0);
      Expr.Binop (Div, Const 0, Field 1);
      Expr.Binop (Mod, Const min_int, Const (-1));
    ]

let test_shift_masking () =
  let fields = [| 1; 31; 32; 33; -1; 64 |] in
  List.iter
    (fun shift ->
      let fields = Array.copy fields in
      List.iter
        (fun e -> assert_same ~fields ~state:None e)
        [
          Expr.Binop (Shl, Field 0, Const shift);
          Expr.Binop (Shr, Const (-8), Const shift);
          Expr.Binop (Shl, Field 0, Field 3);
          Expr.Binop (Shr, Field 4, Field 2);
        ])
    [ 0; 1; 31; 32; 33; 63; -1 ]

(* Short-circuit parity: the untaken right arm contains a subexpression
   that raises, so any engine that evaluates it eagerly fails loudly. *)
let test_short_circuit () =
  let raising = Expr.Field 999 in
  let fields = [| 0; 1; 0; 0; 0; 0 |] in
  (* left decides: no raise, identical value *)
  assert_same ~fields ~state:None (Binop (Log_and, Const 0, raising));
  assert_same ~fields ~state:None (Binop (Log_and, Field 0, raising));
  assert_same ~fields ~state:None (Binop (Log_or, Const 3, raising));
  assert_same ~fields ~state:None (Binop (Log_or, Field 1, raising));
  (* left does not decide: both engines raise the same error *)
  assert_same ~fields ~state:None (Binop (Log_and, Field 1, raising));
  assert_same ~fields ~state:None (Binop (Log_or, Field 0, raising));
  (* truthiness of the decided result is still normalised to 0/1 *)
  assert_same ~fields ~state:None (Binop (Log_and, Const 5, Const (-3)));
  assert_same ~fields ~state:None (Binop (Log_or, Const 0, Const 9))

let test_state_val_errors () =
  let fields = [| 0; 0; 0; 0; 0; 0 |] in
  (* reached State_val without a cell: same Invalid_argument both ways *)
  assert_same ~fields ~state:None Expr.State_val;
  assert_same ~fields ~state:None (Binop (Add, Const 1, State_val));
  (* constant-folded condition drops the State_val branch entirely *)
  assert_same ~fields ~state:None (Ternary (Const 0, State_val, Const 7));
  assert_same ~fields ~state:None (Ternary (Const 1, Const 7, State_val));
  (* with a cell present both read the same value *)
  assert_same ~fields ~state:(Some 123) (Binop (Mul, State_val, Const 2))

let test_hash_and_lookup () =
  let fields = [| 3; 5; 1; 2; 9; 0 |] in
  List.iter
    (fun e -> assert_same ~fields ~state:None e)
    [
      Expr.Hash [ Field 0 ];
      Expr.Hash [ Field 0; Field 1 ];
      Expr.Hash [ Field 0; Field 1; Field 4 ];
      Expr.Hash [ Const (-1) ];
      Expr.Lookup (0, [ Field 0 ]);        (* hit: key 3 *)
      Expr.Lookup (0, [ Field 4 ]);        (* miss -> default action *)
      Expr.Lookup (1, [ Field 2; Field 3 ]);
      Expr.Lookup (99, [ Field 0 ]);       (* out-of-range table id raises *)
    ]

(* --- atoms --------------------------------------------------------- *)

let random_stateless rng =
  Atom.stateless_op ~dst:(Rng.int rng n_fields)
    ~rhs:(random_expr rng ~state:false (1 + Rng.int rng 3))

let test_stateless_parity () =
  let rng = Rng.create 0x5151 in
  for _ = 1 to 400 do
    let op = random_stateless rng in
    let base = random_fields rng in
    let fa = Array.copy base and fb = Array.copy base in
    let interp = outcome (fun () -> Atom.exec_stateless ~tables ~fields:fa op) in
    let compiled =
      match outcome (fun () -> Atom.compile_stateless ~tables op) with
      | Ok k -> outcome (fun () -> k (Expr.frame_of_array fb))
      | Error m -> Error m
    in
    check "same outcome" true
      ((match (interp, compiled) with
       | Ok (), Ok () -> true
       | Error a, Error b -> a = b
       | _ -> false)
      && fa = fb)
  done

let random_stateful rng =
  let opt f = if Rng.bool rng then Some (f ()) else None in
  Atom.stateful ~reg:0
    ~index:(random_expr rng ~state:false (1 + Rng.int rng 2))
    ?guard:(opt (fun () -> random_expr rng ~state:false (1 + Rng.int rng 2)))
    ?update:(opt (fun () -> random_expr rng ~state:true (1 + Rng.int rng 2)))
    ~outputs:
      (List.init (Rng.int rng 3) (fun _ ->
           (Rng.int rng n_fields, if Rng.bool rng then Atom.Old_value else Atom.New_value)))
    ()

let test_stateful_parity () =
  let rng = Rng.create 0xa70 in
  for _ = 1 to 400 do
    let atom = random_stateful rng in
    let base_fields = random_fields rng in
    let size = 1 + Rng.int rng 16 in
    let base_reg = Array.init size (fun _ -> Rng.int rng 100 - 50) in
    let fa = Array.copy base_fields and fb = Array.copy base_fields in
    let ra = Array.copy base_reg and rb = Array.copy base_reg in
    let r = Atom.exec_stateful ~tables ~fields:fa ~reg_array:ra atom in
    let k = Atom.compile_stateful ~tables atom in
    let cell = k (Expr.frame_of_array fb) rb (-1) in
    check_int "returned cell" (if r.Atom.accessed then r.Atom.cell else -1) cell;
    check "fields identical" true (fa = fb);
    check "registers identical" true (ra = rb)
  done

(* The simulator passes the arrival-resolved cell as a hint; the hinted
   call must behave exactly like the recomputing one. *)
let test_stateful_cell_hint () =
  let rng = Rng.create 0xce11 in
  for _ = 1 to 400 do
    let atom = random_stateful rng in
    let base_fields = random_fields rng in
    let size = 1 + Rng.int rng 16 in
    let base_reg = Array.init size (fun _ -> Rng.int rng 100 - 50) in
    let hint = Atom.resolve_index ~tables ~fields:base_fields ~size atom in
    let k = Atom.compile_stateful ~tables atom in
    let fa = Array.copy base_fields and fb = Array.copy base_fields in
    let ra = Array.copy base_reg and rb = Array.copy base_reg in
    let ca = k (Expr.frame_of_array fa) ra (-1) in
    let cb = k (Expr.frame_of_array fb) rb hint in
    check_int "same cell" ca cb;
    check "fields identical" true (fa = fb);
    check "registers identical" true (ra = rb)
  done

(* --- whole-program wiring ------------------------------------------ *)

module Kernel = Mp5_core.Kernel
module Transform = Mp5_core.Transform
module Config = Mp5_banzai.Config
module Progen = Mp5_fuzz.Progen

(* [Kernel.create]'s per-program wiring — stateless fusion, guard and
   index selection, the index clamp and the cell hint — on both arms of
   [~compiled].  Packets flow as in the simulator: guard and index at
   arrival, then per stage the stateless kernel and the stage's
   accesses in id order.  The compiled exec gets the arrival cell as its
   hint and the interpreter recomputes it (-1).  Odd packets sit at an
   offset inside a larger array, as slab frames do, so the sentinel
   words around the window must survive too.  Returns the number of
   accesses that touched a register. *)
let check_wiring name (prog : Transform.t) =
  let config = prog.Transform.config in
  let kc = Kernel.create ~compiled:true prog and ki = Kernel.create ~compiled:false prog in
  let regs () = Array.map (fun (r : Config.reg) -> Array.copy r.Config.init) config.Config.regs in
  let rc = regs () and ri = regs () in
  let nf = Array.length config.Config.fields and nu = config.Config.n_user_fields in
  let rng = Rng.create (Hashtbl.hash name) in
  let accessed = ref 0 in
  for pkt = 0 to 63 do
    let fail what i = Alcotest.failf "%s, packet %d: %s %d" name pkt what i in
    let off = 3 * (pkt land 1) in
    let base = Array.make (nf + (2 * off)) (-77) in
    Array.fill base off nf 0;
    Array.blit (random_fields ~n:nu rng) 0 base off nu;
    let fc = { Expr.base = Array.copy base; off; len = nf } in
    let fi = { Expr.base = Array.copy base; off; len = nf } in
    let hint i (a : Transform.access) =
      (match (kc.Kernel.guard.(i), ki.Kernel.guard.(i), a.Transform.guard) with
      | G_true, G_true, G_always | G_unknown, G_unknown, G_unresolved -> ()
      | G_pred pc, G_pred pi, G_resolved _ -> if pc fc <> pi fi then fail "guard of access" i
      | _ -> fail "guard shape of access" i);
      match (kc.Kernel.index.(i), ki.Kernel.index.(i), a.Transform.index) with
      | I_none, I_none, I_unresolved -> -1
      | I_cell c, I_cell ii, I_resolved _ ->
          let cell = c fc in
          if cell <> ii fi then fail "index of access" i;
          cell
      | _ -> fail "index shape of access" i
    in
    let hints = Array.mapi hint prog.Transform.accesses in
    for stage = 1 to Array.length config.Config.stages - 1 do
      kc.Kernel.stateless.(stage) fc;
      ki.Kernel.stateless.(stage) fi;
      if fc.Expr.base <> fi.Expr.base then fail "stateless fields of stage" stage;
      Array.iter
        (fun { Transform.acc_id = i; reg; stage = s; _ } ->
          if s = stage then begin
            let cc = kc.Kernel.exec.(i) fc rc.(reg) hints.(i) in
            if cc <> ki.Kernel.exec.(i) fi ri.(reg) (-1) then fail "cell of access" i;
            if fc.Expr.base <> fi.Expr.base then fail "fields after access" i;
            if rc.(reg) <> ri.(reg) then fail "registers after access" i;
            if cc >= 0 then incr accessed
          end)
        prog.Transform.accesses
    done
  done;
  !accessed

let test_program_wiring () =
  let app (name, src) = check_wiring name (Mp5_core.Switch.create_exn src).Mp5_core.Switch.prog in
  let accessed = List.fold_left (fun n a -> n + app a) 0 Mp5_apps.Sources.all_named in
  if accessed < 1000 then Alcotest.failf "only %d register accesses ran over the apps" accessed;
  for i = 0 to 43 do
    match Mp5_domino.Compile.compile ~limits:Progen.limits (Progen.generate (5 * i)) with
    | Ok t ->
        let prog = Transform.transform ~limits:Progen.limits t.Mp5_domino.Compile.config in
        ignore (check_wiring (Printf.sprintf "progen seed %d" (5 * i)) prog : int)
    | Error _ -> Alcotest.failf "progen seed %d does not compile" (5 * i)
  done

let () =
  Alcotest.run "kernel"
    [
      ( "expr",
        [
          Alcotest.test_case "random exprs, stateless" `Quick test_random_exprs;
          Alcotest.test_case "random exprs, with state" `Quick test_random_exprs_with_state;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "shift masking" `Quick test_shift_masking;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "state_val errors" `Quick test_state_val_errors;
          Alcotest.test_case "hash and lookup" `Quick test_hash_and_lookup;
        ] );
      ( "atom",
        [
          Alcotest.test_case "stateless parity" `Quick test_stateless_parity;
          Alcotest.test_case "stateful parity" `Quick test_stateful_parity;
          Alcotest.test_case "cell hint" `Quick test_stateful_cell_hint;
        ] );
      ("create", [ Alcotest.test_case "program wiring, both arms" `Quick test_program_wiring ]);
    ]
