type reg = { reg_name : string; size : int; init : int array }

type stage = { stateless : Atom.stateless_op list; atoms : Atom.stateful list }

type t = {
  fields : string array;
  n_user_fields : int;
  regs : reg array;
  tables : Table.t array;
  stages : stage array;
}

let empty_stage = { stateless = []; atoms = [] }

let reg ~name ~size ?init () =
  if size <= 0 then invalid_arg "Config.reg: size must be positive";
  let init =
    match init with
    | None -> Array.make size 0
    | Some a ->
        if Array.length a > size then invalid_arg "Config.reg: init longer than size";
        Array.init size (fun i -> if i < Array.length a then a.(i) else 0)
  in
  { reg_name = name; size; init }

let ( let* ) r f = Result.bind r f

let check b msg = if b then Ok () else Error msg

let check_expr t name e =
  let n_fields = Array.length t.fields in
  let rec go = function
    | Expr.Const _ | Expr.State_val -> Ok ()
    | Expr.Field i ->
        check (i >= 0 && i < n_fields) (Printf.sprintf "%s: field f%d out of range" name i)
    | Expr.Binop (_, a, b) ->
        let* () = go a in
        go b
    | Expr.Unop (_, a) -> go a
    | Expr.Ternary (c, a, b) ->
        let* () = go c in
        let* () = go a in
        go b
    | Expr.Hash args -> List.fold_left (fun acc a -> let* () = acc in go a) (Ok ()) args
    | Expr.Lookup (id, keys) ->
        let* () =
          check (id >= 0 && id < Array.length t.tables)
            (Printf.sprintf "%s: table %d out of range" name id)
        in
        let* () =
          check
            (List.length keys = Table.arity t.tables.(id))
            (Printf.sprintf "%s: table %d expects %d keys, got %d" name id
               (Table.arity t.tables.(id)) (List.length keys))
        in
        List.fold_left (fun acc a -> let* () = acc in go a) (Ok ()) keys
  in
  go e

let validate t =
  let n_fields = Array.length t.fields in
  let n_regs = Array.length t.regs in
  let* () = check (t.n_user_fields >= 0 && t.n_user_fields <= n_fields) "n_user_fields out of range" in
  let* () =
    Array.to_list t.regs
    |> List.mapi (fun i r ->
           let* () = check (r.size > 0) (Printf.sprintf "reg %d: size not positive" i) in
           check (Array.length r.init = r.size) (Printf.sprintf "reg %d: init length" i))
    |> List.fold_left (fun acc r -> let* () = acc in r) (Ok ())
  in
  let reg_stage = Hashtbl.create 8 in
  let check_stage si stage =
    let* () =
      List.fold_left
        (fun acc (op : Atom.stateless_op) ->
          let* () = acc in
          let* () =
            check (op.dst >= 0 && op.dst < n_fields)
              (Printf.sprintf "stage %d: stateless dst f%d out of range" si op.dst)
          in
          let* () = check_expr t (Printf.sprintf "stage %d stateless" si) op.rhs in
          check (not (Expr.uses_state op.rhs)) (Printf.sprintf "stage %d: stateless op uses State_val" si))
        (Ok ()) stage.stateless
    in
    List.fold_left
      (fun acc (a : Atom.stateful) ->
        let* () = acc in
        let* () =
          check (a.reg >= 0 && a.reg < n_regs) (Printf.sprintf "stage %d: reg %d out of range" si a.reg)
        in
        let* () =
          match Hashtbl.find_opt reg_stage a.reg with
          | Some other when other <> si ->
              Error
                (Printf.sprintf "reg %d accessed in stages %d and %d (state is stage-local)" a.reg
                   other si)
          | _ ->
              Hashtbl.replace reg_stage a.reg si;
              Ok ()
        in
        let* () = check_expr t (Printf.sprintf "stage %d index" si) a.index in
        let* () = check (not (Expr.uses_state a.index)) (Printf.sprintf "stage %d: index uses State_val" si) in
        let* () =
          match a.guard with
          | None -> Ok ()
          | Some g ->
              let* () = check_expr t (Printf.sprintf "stage %d guard" si) g in
              check (not (Expr.uses_state g)) (Printf.sprintf "stage %d: guard uses State_val" si)
        in
        let* () =
          match a.update with
          | None -> Ok ()
          | Some u -> check_expr t (Printf.sprintf "stage %d update" si) u
        in
        List.fold_left
          (fun acc (dst, _) ->
            let* () = acc in
            check (dst >= 0 && dst < n_fields)
              (Printf.sprintf "stage %d: output f%d out of range" si dst))
          (Ok ()) a.outputs)
      (Ok ()) stage.atoms
  in
  Array.to_list t.stages
  |> List.mapi check_stage
  |> List.fold_left (fun acc r -> let* () = acc in r) (Ok ())

let regs_of_stage stage =
  List.map (fun (a : Atom.stateful) -> a.reg) stage.atoms |> List.sort_uniq compare

let stage_of_reg t r =
  let found = ref None in
  Array.iteri
    (fun i s -> if !found = None && List.mem r (regs_of_stage s) then found := Some i)
    t.stages;
  !found

let field_id t name =
  let found = ref None in
  Array.iteri (fun i f -> if !found = None && String.equal f name then found := Some i) t.fields;
  !found

let pp ppf t =
  Format.fprintf ppf "@[<v>fields: %s@,"
    (String.concat ", " (Array.to_list t.fields));
  Array.iter (fun tbl -> Table.pp ppf tbl) t.tables;
  Array.iteri
    (fun i r -> Format.fprintf ppf "reg%d %s[%d]@," i r.reg_name r.size)
    t.regs;
  Array.iteri
    (fun i s ->
      Format.fprintf ppf "stage %d:@," i;
      List.iter (fun op -> Format.fprintf ppf "  %a@," Atom.pp_stateless op) s.stateless;
      List.iter (fun a -> Format.fprintf ppf "  %a@," Atom.pp_stateful a) s.atoms)
    t.stages;
  Format.fprintf ppf "@]"
