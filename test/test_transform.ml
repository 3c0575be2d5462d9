(* Tests for the PVSM-to-PVSM transformer: resolution classification,
   serialization and its stage budget, pinning, stage padding. *)

module Config = Mp5_banzai.Config
module Capability = Mp5_banzai.Capability
module Transform = Mp5_core.Transform
open Mp5_domino

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let transform ?limits ?pad_to_stages src =
  let t = Compile.compile_exn ?limits src in
  (Transform.transform ?limits ?pad_to_stages t.Compile.config, t)

let wrap body =
  Printf.sprintf
    "struct Packet { int x; int y; };\nint r[8];\nint s[8];\nvoid func(struct Packet p) { %s }"
    body

let test_resolution_stage_prepended () =
  let prog, t = transform (wrap "r[p.x % 8] = r[p.x % 8] + 1;") in
  check_int "one extra stage" (Array.length t.Compile.config.Config.stages + 1)
    (Array.length prog.Transform.config.Config.stages);
  check "stage 0 empty" true
    (prog.Transform.config.Config.stages.(0).Config.atoms = []
    && prog.Transform.config.Config.stages.(0).Config.stateless = []);
  check "access points into shifted stage" true
    (Array.for_all (fun (a : Transform.access) -> a.Transform.stage >= 1) prog.Transform.accesses)

let test_resolved_guard_and_index () =
  let prog, _ = transform (wrap "if (p.y > 2) { r[p.x % 8] = 1; }") in
  match prog.Transform.accesses with
  | [| a |] ->
      check "guard resolved" true
        (match a.Transform.guard with Transform.G_resolved _ -> true | _ -> false);
      check "index resolved" true
        (match a.Transform.index with Transform.I_resolved _ -> true | _ -> false);
      check "sharded" true prog.Transform.sharded.(a.Transform.reg)
  | _ -> Alcotest.fail "expected one access"

let test_always_guard () =
  let prog, _ = transform (wrap "r[0] = r[0] + 1;") in
  check "G_always" true
    (match prog.Transform.accesses.(0).Transform.guard with
    | Transform.G_always -> true
    | _ -> false)

let test_unresolvable_guard () =
  let prog, t = transform Mp5_apps.Sources.ddos_unresolvable_pred in
  let blocked = Hashtbl.find t.Compile.env.Typecheck.reg_index "blocked" in
  let acc =
    Array.to_list prog.Transform.accesses
    |> List.find (fun (a : Transform.access) -> a.Transform.reg = blocked)
  in
  check "blocked guard unresolvable" true (acc.Transform.guard = Transform.G_unresolved);
  check "blocked still sharded (index is resolvable)" true prog.Transform.sharded.(blocked)

let test_unresolvable_index_pins_array () =
  let prog, t = transform Mp5_apps.Sources.pointer_chase_unresolvable_idx in
  let data = Hashtbl.find t.Compile.env.Typecheck.reg_index "data" in
  let indirection = Hashtbl.find t.Compile.env.Typecheck.reg_index "indirection" in
  check "data pinned" false prog.Transform.sharded.(data);
  check "indirection sharded" true prog.Transform.sharded.(indirection);
  let acc =
    Array.to_list prog.Transform.accesses
    |> List.find (fun (a : Transform.access) -> a.Transform.reg = data)
  in
  check "I_unresolved" true (acc.Transform.index = Transform.I_unresolved)

let test_serialization_splits_multi_array_stage () =
  (* Two independent arrays land in the same PVSM stage; the transformer
     must serialize them into consecutive stages when the budget allows. *)
  let prog, _ = transform (wrap "r[p.x % 8] = r[p.x % 8] + 1; s[p.y % 8] = s[p.y % 8] + 1;") in
  Array.iter
    (fun (st : Config.stage) ->
      check "at most one array per stage" true (List.length (Config.regs_of_stage st) <= 1))
    prog.Transform.config.Config.stages;
  check "both sharded" true (Array.for_all Fun.id prog.Transform.sharded)

let test_no_budget_rejected () =
  (* With a 2-stage machine there is no room to serialize (2 atom stages
     + resolution): the program is rejected, never run unsplit. *)
  let limits = { Capability.default with Capability.max_stages = 2 } in
  let t =
    Compile.compile_exn ~limits (wrap "r[p.x % 8] = r[p.x % 8] + 1; s[p.y % 8] = s[p.y % 8] + 1;")
  in
  let msg =
    "serialization error: stage 0 accesses arrays r, s, which one packet may touch together, \
     so it must be split; the split program needs 3 stages (with address resolution), \
     max_stages is 2"
  in
  (match Transform.create ~limits t.Compile.config with
  | Ok _ -> Alcotest.fail "expected a serialization error"
  | Error m -> Alcotest.(check string) "error" msg m);
  Alcotest.check_raises "transform raises" (Invalid_argument msg) (fun () ->
      ignore (Transform.transform ~limits t.Compile.config))

let test_figure3_exclusive_stage () =
  let prog, t = transform Mp5_apps.Sources.figure3 in
  ignore t;
  (* reg1 and reg2 have complementary guards (the two arms of the mux
     ternary), so they share a stage — a packet accesses at most one of
     them, which is all D2's independent sharding needs. *)
  let multi =
    Array.to_list prog.Transform.config.Config.stages
    |> List.filter (fun (st : Config.stage) -> List.length (Config.regs_of_stage st) = 2)
  in
  check_int "reg1/reg2 share one stage" 1 (List.length multi);
  check "all sharded" true (Array.for_all Fun.id prog.Transform.sharded);
  check_int "three accesses" 3 (Array.length prog.Transform.accesses)

let test_accesses_by_stage () =
  let prog, _ = transform (wrap "r[p.x % 8] = r[p.x % 8] + 1; s[p.y % 8] = s[p.y % 8] + 1;") in
  let by_stage = Transform.accesses_by_stage prog in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 by_stage in
  check_int "all accesses assigned" (Array.length prog.Transform.accesses) total;
  Array.iteri
    (fun stage accs ->
      List.iter (fun (a : Transform.access) -> check_int "stage matches" stage a.Transform.stage) accs)
    by_stage

let test_pad_to_stages () =
  let prog, _ = transform ~pad_to_stages:16 (wrap "r[0] = r[0] + 1;") in
  check_int "padded" 16 (Array.length prog.Transform.config.Config.stages);
  check "padding stages empty" true
    (prog.Transform.config.Config.stages.(15).Config.atoms = []);
  (* Padding never truncates. *)
  let prog2, _ = transform ~pad_to_stages:1 (wrap "r[0] = r[0] + 1;") in
  check "no truncation" true (Array.length prog2.Transform.config.Config.stages >= 2)

let test_transformed_config_validates () =
  List.iter
    (fun (name, src) ->
      let prog, _ = transform src in
      match Config.validate prog.Transform.config with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    Mp5_apps.Sources.all_named

let test_acc_ids_dense_and_ordered () =
  let prog, _ = transform Mp5_apps.Sources.conga in
  Array.iteri
    (fun i (a : Transform.access) -> check_int "dense ids" i a.Transform.acc_id)
    prog.Transform.accesses;
  let stages = Array.map (fun (a : Transform.access) -> a.Transform.stage) prog.Transform.accesses in
  let sorted = Array.copy stages in
  Array.sort compare sorted;
  check "stage order" true (stages = sorted)

let () =
  Alcotest.run "transform"
    [
      ( "transform",
        [
          Alcotest.test_case "resolution stage prepended" `Quick test_resolution_stage_prepended;
          Alcotest.test_case "resolved guard and index" `Quick test_resolved_guard_and_index;
          Alcotest.test_case "always guard" `Quick test_always_guard;
          Alcotest.test_case "unresolvable guard" `Quick test_unresolvable_guard;
          Alcotest.test_case "unresolvable index pins" `Quick test_unresolvable_index_pins_array;
          Alcotest.test_case "serialization" `Quick test_serialization_splits_multi_array_stage;
          Alcotest.test_case "budget exhausted rejected" `Quick test_no_budget_rejected;
          Alcotest.test_case "figure 3 exclusive stage" `Quick test_figure3_exclusive_stage;
          Alcotest.test_case "accesses_by_stage" `Quick test_accesses_by_stage;
          Alcotest.test_case "pad_to_stages" `Quick test_pad_to_stages;
          Alcotest.test_case "transformed configs validate" `Quick
            test_transformed_config_validates;
          Alcotest.test_case "access ids dense" `Quick test_acc_ids_dense_and_ordered;
        ] );
    ]
