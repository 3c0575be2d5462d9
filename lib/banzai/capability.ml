type limits = {
  max_expr_depth : int;
  max_expr_size : int;
  max_stateless_per_stage : int;
  max_atoms_per_stage : int;
  max_stages : int;
  allow_mul_div : bool;
  allow_hash : bool;
  allow_table : bool;
  template : Taxonomy.t;
}

let default =
  {
    max_expr_depth = 6;
    max_expr_size = 24;
    max_stateless_per_stage = 32;
    max_atoms_per_stage = 2;
    max_stages = 16;
    allow_mul_div = true;
    allow_hash = true;
    allow_table = true;
    template = Taxonomy.Pairs;
  }

let ( let* ) = Result.bind
let check b msg = if b then Ok () else Error msg

let rec ops_ok limits e =
  match e with
  | Expr.Const _ | Expr.Field _ | Expr.State_val -> true
  | Expr.Binop ((Mul | Div | Mod), a, b) ->
      limits.allow_mul_div && ops_ok limits a && ops_ok limits b
  | Expr.Binop (_, a, b) -> ops_ok limits a && ops_ok limits b
  | Expr.Unop (_, a) -> ops_ok limits a
  | Expr.Ternary (c, a, b) -> ops_ok limits c && ops_ok limits a && ops_ok limits b
  | Expr.Hash args -> limits.allow_hash && List.for_all (ops_ok limits) args
  | Expr.Lookup (_, keys) -> limits.allow_table && List.for_all (ops_ok limits) keys

let check_expr limits e =
  let* () =
    check (Expr.depth e <= limits.max_expr_depth)
      (Printf.sprintf "expression depth %d exceeds limit %d" (Expr.depth e) limits.max_expr_depth)
  in
  let* () =
    check (Expr.size e <= limits.max_expr_size)
      (Printf.sprintf "expression size %d exceeds limit %d" (Expr.size e) limits.max_expr_size)
  in
  check (ops_ok limits e) "expression uses an operation the ALU lacks"

let check_stage limits (stage : Config.stage) =
  let* () =
    check
      (List.length stage.stateless <= limits.max_stateless_per_stage)
      "too many stateless ops in stage"
  in
  let* () = check (List.length stage.atoms <= limits.max_atoms_per_stage) "too many atoms in stage" in
  let* () =
    List.fold_left
      (fun acc (op : Atom.stateless_op) ->
        let* () = acc in
        check_expr limits op.rhs)
      (Ok ()) stage.stateless
  in
  List.fold_left
    (fun acc (a : Atom.stateful) ->
      let* () = acc in
      let* () = check_expr limits a.index in
      let* () = match a.guard with None -> Ok () | Some g -> check_expr limits g in
      let* () =
        match a.update with None -> Ok () | Some u -> check_expr limits u
      in
      let required = Taxonomy.classify a in
      check
        (Taxonomy.subsumes ~machine:limits.template ~atom:required)
        (Printf.sprintf "atom on reg %d needs the %s template; machine has %s" a.reg
           (Taxonomy.name required)
           (Taxonomy.name limits.template)))
    (Ok ()) stage.atoms

let check limits (t : Config.t) =
  let* () =
    check
      (Array.length t.stages <= limits.max_stages)
      (Printf.sprintf "%d stages exceed machine limit %d" (Array.length t.stages) limits.max_stages)
  in
  Array.to_list t.stages
  |> List.map (check_stage limits)
  |> List.fold_left (fun acc r -> let* () = acc in r) (Ok ())
