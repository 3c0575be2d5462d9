(* Unit tests for name resolution / static checks. *)

open Mp5_domino

let check = Alcotest.(check bool)

let wrap body =
  Printf.sprintf
    "struct Packet { int x; int y; };\nint scalar;\nint arr[4];\nvoid func(struct Packet p) { %s }"
    body

let ok src =
  match Typecheck.check (Parser.parse src) with
  | _ -> true
  | exception Typecheck.Error _ -> false

let expect_err name src =
  match Typecheck.check (Parser.parse src) with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a type error" name

let test_valid () =
  check "simple" true (ok (wrap "p.x = p.y + 1;"));
  check "scalar reg" true (ok (wrap "scalar = scalar + 1;"));
  check "array reg" true (ok (wrap "arr[p.x % 4] = 1;"));
  check "local" true (ok (wrap "int t = 3; p.x = t;"));
  check "hash" true (ok (wrap "p.x = hash(p.x, p.y) % 4;"))

let test_unknown_names () =
  expect_err "unknown field" (wrap "p.z = 1;");
  expect_err "unknown field read" (wrap "p.x = p.z;");
  expect_err "unknown var" (wrap "p.x = nope;");
  expect_err "unknown register" (wrap "nope[0] = 1;");
  expect_err "wrong struct param" (wrap "q.x = 1;")

let test_scalar_vs_array () =
  expect_err "array needs index (rvalue)" (wrap "p.x = arr;");
  expect_err "array needs index (lvalue)" (wrap "arr = 1;");
  expect_err "scalar cannot be indexed" (wrap "scalar[0] = 1;");
  expect_err "scalar read with index" (wrap "p.x = scalar[0];")

let test_locals () =
  expect_err "undeclared assignment" (wrap "t = 1;");
  expect_err "use before declaration" (wrap "p.x = t; int t;");
  expect_err "duplicate local" (wrap "int t; int t;");
  expect_err "local shadows register" (wrap "int scalar;")

let test_declaration_conflicts () =
  expect_err "duplicate packet field"
    "struct Packet { int x; int x; }; void func(struct Packet p) { p.x = 1; }";
  expect_err "duplicate register"
    "struct Packet { int x; }; int r; int r; void func(struct Packet p) { p.x = 1; }";
  expect_err "register collides with field"
    "struct Packet { int x; }; int x; void func(struct Packet p) { p.x = 1; }";
  expect_err "zero-size register"
    "struct Packet { int x; }; int r[0]; void func(struct Packet p) { p.x = 1; }";
  expect_err "too many initializers"
    "struct Packet { int x; }; int r[2] = {1,2,3}; void func(struct Packet p) { p.x = 1; }"

let test_hash_arity () = expect_err "hash without args" (wrap "p.x = hash();")

let test_env_contents () =
  let env = Typecheck.check (Parser.parse (wrap "int t = 1; p.x = t;")) in
  check "fields recorded" true (env.Typecheck.fields = [| "x"; "y" |]);
  check "regs recorded" true (Array.length env.Typecheck.regs = 2);
  check "scalar size 1" true (env.Typecheck.regs.(0).Mp5_banzai.Config.size = 1);
  check "locals recorded" true (env.Typecheck.locals = [ "t" ]);
  check "field index" true (Hashtbl.find env.Typecheck.field_index "y" = 1);
  check "reg index" true (Hashtbl.find env.Typecheck.reg_index "arr" = 1)

let test_branch_scoping () =
  (* Flat function scope: a local declared in a branch is visible after. *)
  check "branch-declared local" true (ok (wrap "if (p.x) { int t = 1; p.y = t; } p.x = 2;"))

let () =
  Alcotest.run "typecheck"
    [
      ( "typecheck",
        [
          Alcotest.test_case "valid programs" `Quick test_valid;
          Alcotest.test_case "unknown names" `Quick test_unknown_names;
          Alcotest.test_case "scalar vs array" `Quick test_scalar_vs_array;
          Alcotest.test_case "locals" `Quick test_locals;
          Alcotest.test_case "declaration conflicts" `Quick test_declaration_conflicts;
          Alcotest.test_case "hash arity" `Quick test_hash_arity;
          Alcotest.test_case "env contents" `Quick test_env_contents;
          Alcotest.test_case "branch scoping" `Quick test_branch_scoping;
        ] );
    ]
