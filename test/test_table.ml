(* Tests for match tables: lookup semantics, control-plane operations,
   the Domino surface syntax, and end-to-end MP5 equivalence for
   table-driven programs. *)

module Table = Mp5_banzai.Table
module Expr = Mp5_banzai.Expr
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Switch = Mp5_core.Switch
module Equiv = Mp5_core.Equiv
module Rng = Mp5_util.Rng
open Mp5_domino

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Table unit tests --- *)

let test_empty_default () =
  let t = Table.create ~name:"t" ~arity:2 ~default_action:7 () in
  check_int "default on miss" 7 (Table.lookup t [ 1; 2 ]);
  check_int "size" 0 (Table.size t)

let test_exact_match () =
  let t = Table.create ~name:"t" ~arity:2 () in
  let _ = Table.add_exact t ~key:[ 10; 20 ] ~action:3 () in
  check_int "hit" 3 (Table.lookup t [ 10; 20 ]);
  check_int "miss" 0 (Table.lookup t [ 10; 21 ]);
  check_int "one entry" 1 (Table.size t)

let test_ternary_mask () =
  let t = Table.create ~name:"t" ~arity:1 () in
  (* Match any key whose low byte is 0x42. *)
  Table.add t { Table.key = [ (0x42, 0xFF) ]; priority = 0; action = 9 };
  check_int "masked hit" 9 (Table.lookup t [ 0x1142 ]);
  check_int "masked miss" 0 (Table.lookup t [ 0x1143 ])

let test_wildcard () =
  let t = Table.create ~name:"t" ~arity:1 ~default_action:5 () in
  Table.add t { Table.key = [ (0, 0) ]; priority = 0; action = 1 };
  check_int "wildcard matches everything" 1 (Table.lookup t [ 123456 ])

let test_priority () =
  let t = Table.create ~name:"t" ~arity:1 () in
  Table.add t { Table.key = [ (0, 0) ]; priority = 0; action = 1 };
  Table.add t { Table.key = [ (7, -1) ]; priority = 10; action = 2 };
  check_int "specific entry wins by priority" 2 (Table.lookup t [ 7 ]);
  check_int "fallback to wildcard" 1 (Table.lookup t [ 8 ])

let test_priority_tie_insertion_order () =
  let t = Table.create ~name:"t" ~arity:1 () in
  Table.add t { Table.key = [ (0, 0) ]; priority = 5; action = 1 };
  Table.add t { Table.key = [ (0, 0) ]; priority = 5; action = 2 };
  check_int "oldest wins ties" 1 (Table.lookup t [ 0 ])

let test_arity_checks () =
  let t = Table.create ~name:"t" ~arity:2 () in
  Alcotest.check_raises "bad entry arity"
    (Invalid_argument "Table.add: table t has arity 2, entry has 1 keys") (fun () ->
      Table.add t { Table.key = [ (1, -1) ]; priority = 0; action = 1 });
  Alcotest.check_raises "bad lookup arity"
    (Invalid_argument "Table.lookup: table t has arity 2, got 3 keys") (fun () ->
      ignore (Table.lookup t [ 1; 2; 3 ]))

let test_expr_lookup () =
  let t = Table.create ~name:"t" ~arity:1 () in
  let _ = Table.add_exact t ~key:[ 5 ] ~action:42 () in
  let e = Expr.Lookup (0, [ Expr.Field 0 ]) in
  check_int "via expression" 42 (Expr.eval ~tables:[| t |] ~fields:[| 5 |] ~state:None e);
  check_int "miss via expression" 0 (Expr.eval ~tables:[| t |] ~fields:[| 6 |] ~state:None e);
  Alcotest.check_raises "missing tables" (Invalid_argument "Expr.eval: table 0 out of range")
    (fun () -> ignore (Expr.eval ~fields:[| 5 |] ~state:None e))

(* --- Domino surface --- *)

let test_parse_and_typecheck () =
  let sw = Switch.create_exn Mp5_apps.Sources.acl in
  check_int "one table" 1 (Array.length (Switch.config sw).Mp5_banzai.Config.tables);
  check "handle found" true (Table.arity (Switch.table sw "acl") = 2)

let tc_err src =
  match Typecheck.check (Parser.parse src) with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "expected type error"

let test_surface_errors () =
  tc_err "struct Packet { int x; };\nvoid func(struct Packet p) { p.x = nope(p.x); }";
  tc_err
    "struct Packet { int x; };\ntable t(2);\nvoid func(struct Packet p) { p.x = t(p.x); }";
  tc_err "struct Packet { int x; };\ntable t(0);\nvoid func(struct Packet p) { p.x = 1; }";
  tc_err
    "struct Packet { int x; };\ntable t(1);\ntable t(1);\nvoid func(struct Packet p) { p.x = 1; }";
  tc_err
    "struct Packet { int x; };\nint t;\ntable t(1);\nvoid func(struct Packet p) { p.x = 1; }"

let test_golden_uses_table () =
  let sw = Switch.create_exn Mp5_apps.Sources.acl in
  let acl = Switch.table sw "acl" in
  let _ = Table.add_exact acl ~key:[ 1; 2 ] ~action:1 () in
  let mk src dst time = { Machine.time; port = 0; headers = [| src; dst; 0; 0 |] } in
  let trace = [| mk 1 2 0; mk 3 4 1; mk 1 2 2 |] in
  let g = Switch.golden sw trace in
  check_int "denied verdict" 1 g.Machine.headers_out.(0).(2);
  check_int "allowed verdict" 0 g.Machine.headers_out.(1).(2);
  check_int "counter counts denied only" 2 (Store.get g.Machine.store ~reg:0 ~idx:2);
  check_int "hit count in packet" 2 g.Machine.headers_out.(2).(3)

let test_mp5_equivalent_with_table () =
  let sw = Switch.create_exn Mp5_apps.Sources.acl in
  let acl = Switch.table sw "acl" in
  (* Deny a band of sources via a ternary entry plus some exact entries. *)
  Table.add acl { Table.key = [ (0x10, 0xF0); (0, 0) ]; priority = 1; action = 1 };
  let _ = Table.add_exact acl ~key:[ 3; 7 ] ~action:1 ~priority:2 () in
  let rng = Rng.create 5 in
  let k = 4 in
  let trace =
    Array.init 4000 (fun i ->
        {
          Machine.time = i / k;
          port = i mod k;
          headers = [| Rng.int rng 64; Rng.int rng 64; 0; 0 |];
        })
  in
  let _, rep = Switch.verify ~k sw trace in
  check "equivalent" true (Equiv.equivalent rep);
  check_int "no violations" 0 rep.Equiv.c1_violations

let test_table_guard_is_resolvable () =
  (* The verdict guard depends only on a table over arrival headers, so
     MP5 resolves it preemptively (Figure 5 moves match evaluation into
     the resolution stage). *)
  let sw = Switch.create_exn Mp5_apps.Sources.acl in
  let accs = sw.Switch.prog.Mp5_core.Transform.accesses in
  check "guard resolved" true
    (Array.for_all
       (fun (a : Mp5_core.Transform.access) ->
         match a.Mp5_core.Transform.guard with
         | Mp5_core.Transform.G_resolved _ | Mp5_core.Transform.G_always -> true
         | Mp5_core.Transform.G_unresolved -> false)
       accs);
  check "array sharded" true (Array.for_all Fun.id sw.Switch.prog.Mp5_core.Transform.sharded)

let test_capability_no_match_unit () =
  let limits =
    { Mp5_banzai.Capability.default with Mp5_banzai.Capability.allow_table = false }
  in
  match Mp5_domino.Compile.compile ~limits Mp5_apps.Sources.acl with
  | Error e -> check "rejected at lowering" true (e.Mp5_domino.Compile.phase = Mp5_domino.Compile.Lower)
  | Ok _ -> Alcotest.fail "expected rejection without match units"

let test_mp5_line_rate_when_mostly_allowed () =
  (* With an empty table nothing is denied: every packet is stateless and
     MP5 runs at line rate even at tiny packets. *)
  let sw = Switch.create_exn Mp5_apps.Sources.acl in
  let rng = Rng.create 6 in
  let k = 4 in
  let trace =
    Array.init 2000 (fun i ->
        {
          Machine.time = i / k;
          port = i mod k;
          headers = [| Rng.int rng 64; Rng.int rng 64; 0; 0 |];
        })
  in
  let r = Switch.run ~k sw trace in
  check "line rate" true (r.Mp5_core.Sim.normalized_throughput > 0.999);
  check_int "never queued" 0 r.Mp5_core.Sim.max_queue

let () =
  Alcotest.run "table"
    [
      ( "lookup",
        [
          Alcotest.test_case "empty default" `Quick test_empty_default;
          Alcotest.test_case "exact match" `Quick test_exact_match;
          Alcotest.test_case "ternary mask" `Quick test_ternary_mask;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "priority" `Quick test_priority;
          Alcotest.test_case "priority ties" `Quick test_priority_tie_insertion_order;
          Alcotest.test_case "arity checks" `Quick test_arity_checks;
          Alcotest.test_case "expression lookup" `Quick test_expr_lookup;
        ] );
      ( "integration",
        [
          Alcotest.test_case "parse and typecheck" `Quick test_parse_and_typecheck;
          Alcotest.test_case "surface errors" `Quick test_surface_errors;
          Alcotest.test_case "golden uses table" `Quick test_golden_uses_table;
          Alcotest.test_case "MP5 equivalent with table" `Quick test_mp5_equivalent_with_table;
          Alcotest.test_case "table guard resolvable" `Quick test_table_guard_is_resolvable;
          Alcotest.test_case "capability: no match unit" `Quick test_capability_no_match_unit;
          Alcotest.test_case "line rate when allowed" `Quick test_mp5_line_rate_when_mostly_allowed;
        ] );
    ]
