(* Unit tests for pipeline configurations: structural validation, field
   and register helpers, stores. *)

module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Store = Mp5_banzai.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base_config () =
  {
    Config.fields = [| "a"; "b"; "$t0" |];
    n_user_fields = 2;
    regs = [| Config.reg ~name:"r" ~size:4 ~init:[| 1; 2 |] () |];
    tables = [||];
    stages =
      [|
        {
          Config.stateless = [ Atom.stateless_op ~dst:2 ~rhs:(Expr.Field 0) ];
          atoms =
            [ Atom.stateful ~reg:0 ~index:(Expr.Field 2) ~update:(Expr.Binop (Expr.Add, Expr.State_val, Expr.Const 1)) () ];
        };
      |];
  }

let ok = function Ok () -> true | Error _ -> false

let test_valid_config () = check "validates" true (ok (Config.validate (base_config ())))

let test_reg_constructor () =
  let r = Config.reg ~name:"x" ~size:4 ~init:[| 9 |] () in
  Alcotest.(check (array int)) "zero padded" [| 9; 0; 0; 0 |] r.Config.init;
  Alcotest.check_raises "bad size" (Invalid_argument "Config.reg: size must be positive")
    (fun () -> ignore (Config.reg ~name:"x" ~size:0 ()));
  Alcotest.check_raises "too long init"
    (Invalid_argument "Config.reg: init longer than size") (fun () ->
      ignore (Config.reg ~name:"x" ~size:1 ~init:[| 1; 2 |] ()))

let test_field_out_of_range () =
  let c = base_config () in
  let bad =
    {
      c with
      Config.stages =
        [| { Config.stateless = [ { Atom.dst = 2; rhs = Expr.Field 9 } ]; atoms = [] } |];
    }
  in
  check "rejects" false (ok (Config.validate bad))

let test_reg_out_of_range () =
  let c = base_config () in
  let bad =
    {
      c with
      Config.stages =
        [| { Config.stateless = []; atoms = [ Atom.stateful ~reg:3 ~index:(Expr.Const 0) () ] } |];
    }
  in
  check "rejects" false (ok (Config.validate bad))

let test_reg_in_two_stages () =
  let c = base_config () in
  let stage r =
    { Config.stateless = []; atoms = [ Atom.stateful ~reg:r ~index:(Expr.Const 0) () ] }
  in
  let bad = { c with Config.stages = [| stage 0; stage 0 |] } in
  check "state is stage-local" false (ok (Config.validate bad));
  (* Two atoms on the same array within ONE stage are fine structurally. *)
  let same_stage =
    {
      c with
      Config.stages =
        [|
          {
            Config.stateless = [];
            atoms =
              [
                Atom.stateful ~reg:0 ~index:(Expr.Const 0) ();
                Atom.stateful ~reg:0 ~index:(Expr.Const 1) ();
              ];
          };
        |];
    }
  in
  check "same stage ok" true (ok (Config.validate same_stage))

let test_stage_of_reg () =
  let c = base_config () in
  check "found" true (Config.stage_of_reg c 0 = Some 0);
  let c2 = { c with Config.stages = [| Config.empty_stage |] } in
  check "not accessed" true (Config.stage_of_reg c2 0 = None)

let test_field_id () =
  let c = base_config () in
  check "a" true (Config.field_id c "a" = Some 0);
  check "missing" true (Config.field_id c "zz" = None)

(* --- store --- *)

let test_store_init () =
  let s = Store.create (base_config ()) in
  check_int "init value" 1 (Store.get s ~reg:0 ~idx:0);
  check_int "padded zero" 0 (Store.get s ~reg:0 ~idx:3)

let test_store_copy_independent () =
  let s = Store.create (base_config ()) in
  let s2 = Store.copy s in
  Store.set s ~reg:0 ~idx:0 99;
  check_int "copy unaffected" 1 (Store.get s2 ~reg:0 ~idx:0);
  check "not equal now" false (Store.equal s s2)

let test_store_diff () =
  let s = Store.create (base_config ()) in
  let s2 = Store.copy s in
  Store.set s ~reg:0 ~idx:2 5;
  (match Store.diff s s2 with
  | [ (0, 2, 5, 0) ] -> ()
  | _ -> Alcotest.fail "unexpected diff");
  check "diff empty when equal" true (Store.diff s2 s2 = [])

let test_store_array_is_live () =
  let s = Store.create (base_config ()) in
  (Store.array s ~reg:0).(1) <- 42;
  check_int "mutation visible" 42 (Store.get s ~reg:0 ~idx:1)

let () =
  Alcotest.run "config"
    [
      ( "validate",
        [
          Alcotest.test_case "valid config" `Quick test_valid_config;
          Alcotest.test_case "reg constructor" `Quick test_reg_constructor;
          Alcotest.test_case "field out of range" `Quick test_field_out_of_range;
          Alcotest.test_case "reg out of range" `Quick test_reg_out_of_range;
          Alcotest.test_case "reg in two stages" `Quick test_reg_in_two_stages;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "stage_of_reg" `Quick test_stage_of_reg;
          Alcotest.test_case "field_id" `Quick test_field_id;
        ] );
      ( "store",
        [
          Alcotest.test_case "init" `Quick test_store_init;
          Alcotest.test_case "copy independence" `Quick test_store_copy_independent;
          Alcotest.test_case "diff" `Quick test_store_diff;
          Alcotest.test_case "live array" `Quick test_store_array_is_live;
        ] );
    ]
