(* Tests for the compiler middle end (flatten/pipelining) and code
   generation: stage structure, atom fusion, predication, rejection of
   programs outside the atom template, machine limits. *)

module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Capability = Mp5_banzai.Capability
open Mp5_domino

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile ?limits src = Compile.compile_exn ?limits src

let wrap body =
  Printf.sprintf "struct Packet { int x; int y; };\nint r[4];\nint s[4];\nvoid func(struct Packet p) { %s }" body

let phase_error ?limits src expected_phase =
  match Compile.compile ?limits src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> check "phase" true (e.Compile.phase = expected_phase)

(* --- stage structure --- *)

let test_stateless_program_stages () =
  let t = compile "struct Packet { int x; };\nvoid func(struct Packet p) { p.x = p.x * 2 + 1; }" in
  (* No atoms: just the two write-back stages. *)
  check_int "stages" 2 (Array.length t.Compile.config.Config.stages);
  check "no atoms" true
    (Array.for_all (fun s -> s.Config.atoms = []) t.Compile.config.Config.stages)

let test_single_atom_stage () =
  let t = compile (wrap "r[p.x % 4] = r[p.x % 4] + 1;") in
  check_int "one atom stage, no write-back" 1 (Array.length t.Compile.config.Config.stages);
  match t.Compile.config.Config.stages.(0).Config.atoms with
  | [ a ] ->
      check "guard none" true (a.Atom.guard = None);
      check "update present" true (a.Atom.update <> None);
      check "no outputs needed" true (a.Atom.outputs = [])
  | _ -> Alcotest.fail "expected exactly one atom"

let test_dependent_atoms_levels () =
  (* s depends on the value read from r, so it must land in a later stage. *)
  let t = compile (wrap "p.y = r[p.x % 4]; s[p.x % 4] = s[p.x % 4] + p.y;") in
  let stage_of name =
    let reg_id = Hashtbl.find t.Compile.env.Typecheck.reg_index name in
    Option.get (Config.stage_of_reg t.Compile.config reg_id)
  in
  check "r before s" true (stage_of "r" < stage_of "s")

let test_independent_atoms_same_stage () =
  let t = compile (wrap "r[p.x % 4] = r[p.x % 4] + 1; s[p.y % 4] = s[p.y % 4] + 1;") in
  let stage_of name =
    let reg_id = Hashtbl.find t.Compile.env.Typecheck.reg_index name in
    Option.get (Config.stage_of_reg t.Compile.config reg_id)
  in
  check_int "same level" (stage_of "r") (stage_of "s")

(* --- fusion semantics via golden execution --- *)

let run1 t headers =
  let trace = [| { Machine.time = 0; port = 0; headers } |] in
  Machine.run t.Compile.config trace

let test_read_after_write_new_value () =
  let t = compile (wrap "r[0] = r[0] + 5; p.x = r[0];") in
  let r = run1 t [| 0; 0 |] in
  check_int "new value exported" 5 r.Machine.headers_out.(0).(0)

let test_read_before_write_old_value () =
  let t = compile (wrap "p.x = r[0]; r[0] = 9;") in
  let r = run1 t [| 0; 0 |] in
  check_int "old value exported" 0 r.Machine.headers_out.(0).(0);
  check_int "write applied" 9 (Store.get r.Machine.store ~reg:0 ~idx:0)

let test_predicated_write () =
  (* Branches must target distinct arrays: one array cannot be accessed
     at two different indices by one packet (see rejection tests). *)
  let t = compile (wrap "if (p.x > 3) { r[0] = 1; } else { s[1] = 2; }") in
  let r = run1 t [| 5; 0 |] in
  check_int "then branch" 1 (Store.get r.Machine.store ~reg:0 ~idx:0);
  check_int "else not taken" 0 (Store.get r.Machine.store ~reg:1 ~idx:1);
  let r2 = run1 t [| 1; 0 |] in
  check_int "else branch" 2 (Store.get r2.Machine.store ~reg:1 ~idx:1)

let test_nested_if () =
  let t = compile (wrap "if (p.x) { if (p.y) { r[0] = 1; } else { r[0] = 2; } }") in
  check_int "both" 1 (Store.get (run1 t [| 1; 1 |]).Machine.store ~reg:0 ~idx:0);
  check_int "outer only" 2 (Store.get (run1 t [| 1; 0 |]).Machine.store ~reg:0 ~idx:0);
  check_int "neither" 0 (Store.get (run1 t [| 0; 1 |]).Machine.store ~reg:0 ~idx:0)

let test_stateful_predicate_folded () =
  (* The write predicate depends on the register value itself: legal,
     folded into the atom's update. *)
  let t = compile (wrap "if (r[0] > 2) { r[0] = 0; } p.x = r[0];") in
  let store = Store.create t.Compile.config in
  Store.set store ~reg:0 ~idx:0 5;
  let fields = Array.make (Array.length t.Compile.config.Config.fields) 0 in
  Machine.run_packet t.Compile.config store ~fields ~on_access:(fun ~reg:_ ~cell:_ -> ());
  check_int "reset when above threshold" 0 (Store.get store ~reg:0 ~idx:0)

let test_ternary_access_predication () =
  (* Only the taken arm counts as an access (Figure 3 semantics). *)
  let t = compile (wrap "p.x = (p.y == 1) ? r[0] : s[0];") in
  let r = run1 t [| 0; 1 |] in
  check "accessed r only" true (Hashtbl.mem r.Machine.access_seqs (0, 0));
  check "did not access s" false (Hashtbl.mem r.Machine.access_seqs (1, 0))

let test_local_variables_inlined () =
  let t = compile (wrap "int a = p.x + 1; int b = a * 2; p.y = b + a;") in
  let r = run1 t [| 3; 0 |] in
  check_int "value" ((4 * 2) + 4) r.Machine.headers_out.(0).(1)

let test_field_swap () =
  let t = compile (wrap "int tmp = p.x; p.x = p.y; p.y = tmp;") in
  let r = run1 t [| 1; 2 |] in
  check_int "x" 2 r.Machine.headers_out.(0).(0);
  check_int "y" 1 r.Machine.headers_out.(0).(1)

let test_sequential_field_updates () =
  let t = compile (wrap "p.x = p.x + 1; p.x = p.x * 2;") in
  let r = run1 t [| 3; 0 |] in
  check_int "applied in order" 8 r.Machine.headers_out.(0).(0)

(* --- rejection paths --- *)

let test_reject_different_indices () =
  phase_error (wrap "r[0] = 1; r[1] = 2;") Compile.Pipeline

let test_reject_mid_chain_read () =
  (* Read between two writes, exported: not expressible in one atom. *)
  phase_error (wrap "r[0] = 1; p.x = r[0]; r[0] = 2;") Compile.Pipeline

let test_mid_chain_read_unused_is_fine () =
  (* The same shape is fine if the intermediate read is never used. *)
  let t = compile (wrap "r[0] = 1; int dead = r[0]; r[0] = 2;") in
  let r = run1 t [| 0; 0 |] in
  check_int "last write wins" 2 (Store.get r.Machine.store ~reg:0 ~idx:0)

let test_reject_circular_dependency () =
  phase_error (wrap "int a = r[0]; int b = s[0]; r[0] = b; s[0] = a;") Compile.Pipeline

let test_reject_too_many_stages () =
  let limits = { Capability.default with Capability.max_stages = 1 } in
  (* Two dependent atoms need two stages plus write-back. *)
  phase_error ~limits (wrap "p.y = r[p.x % 4]; s[p.y % 4] = 1;") Compile.Lower

let test_reject_expression_too_deep () =
  let limits = { Capability.default with Capability.max_expr_depth = 2 } in
  phase_error ~limits
    (wrap "p.x = ((((p.x + 1) * 2) + 3) * 4) + (p.y * (p.x + (p.y * 3)));")
    Compile.Lower

let test_reject_missing_alu_op () =
  let limits = { Capability.default with Capability.allow_mul_div = false } in
  phase_error ~limits (wrap "p.x = p.x * 3;") Compile.Lower

let test_stage_splitting () =
  let limits = { Capability.default with Capability.max_atoms_per_stage = 1 } in
  let t = compile ~limits (wrap "r[p.x % 4] = r[p.x % 4] + 1; s[p.y % 4] = s[p.y % 4] + 1;") in
  Array.iter
    (fun (st : Config.stage) -> check "at most one atom" true (List.length st.Config.atoms <= 1))
    t.Compile.config.Config.stages;
  (* Splitting must not change semantics. *)
  let r = run1 t [| 1; 2 |] in
  check_int "r updated" 1 (Store.get r.Machine.store ~reg:0 ~idx:1);
  check_int "s updated" 1 (Store.get r.Machine.store ~reg:1 ~idx:2)

let test_error_rendering () =
  match Compile.compile "struct Packet { int x; } void" with
  | Error e ->
      let s = Format.asprintf "%a" Compile.pp_error e in
      check "mentions phase" true (String.length s > 10)
  | Ok _ -> Alcotest.fail "expected error"

let test_pvsm_validates () =
  List.iter
    (fun (name, src) ->
      let t = compile src in
      match Config.validate t.Compile.pvsm with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invalid PVSM: %s" name m)
    Mp5_apps.Sources.all_named

let () =
  Alcotest.run "compile"
    [
      ( "stages",
        [
          Alcotest.test_case "stateless program" `Quick test_stateless_program_stages;
          Alcotest.test_case "single atom" `Quick test_single_atom_stage;
          Alcotest.test_case "dependent atoms ordered" `Quick test_dependent_atoms_levels;
          Alcotest.test_case "independent atoms share level" `Quick
            test_independent_atoms_same_stage;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "read after write" `Quick test_read_after_write_new_value;
          Alcotest.test_case "read before write" `Quick test_read_before_write_old_value;
          Alcotest.test_case "predicated write" `Quick test_predicated_write;
          Alcotest.test_case "nested if" `Quick test_nested_if;
          Alcotest.test_case "stateful predicate folded" `Quick test_stateful_predicate_folded;
          Alcotest.test_case "ternary access predication" `Quick test_ternary_access_predication;
          Alcotest.test_case "locals inlined" `Quick test_local_variables_inlined;
          Alcotest.test_case "field swap" `Quick test_field_swap;
          Alcotest.test_case "sequential field updates" `Quick test_sequential_field_updates;
        ] );
      ( "rejections",
        [
          Alcotest.test_case "different indices" `Quick test_reject_different_indices;
          Alcotest.test_case "mid-chain read" `Quick test_reject_mid_chain_read;
          Alcotest.test_case "unused mid-chain read ok" `Quick test_mid_chain_read_unused_is_fine;
          Alcotest.test_case "circular dependency" `Quick test_reject_circular_dependency;
          Alcotest.test_case "too many stages" `Quick test_reject_too_many_stages;
          Alcotest.test_case "expression too deep" `Quick test_reject_expression_too_deep;
          Alcotest.test_case "missing ALU op" `Quick test_reject_missing_alu_op;
          Alcotest.test_case "stage splitting" `Quick test_stage_splitting;
          Alcotest.test_case "error rendering" `Quick test_error_rendering;
          Alcotest.test_case "all app PVSMs validate" `Quick test_pvsm_validates;
        ] );
    ]
