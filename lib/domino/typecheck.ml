type env = {
  prog : Ast.program;
  fields : string array;
  field_index : (string, int) Hashtbl.t;
  regs : Mp5_banzai.Config.reg array;
  reg_index : (string, int) Hashtbl.t;
  tables : Mp5_banzai.Table.t array;
  table_index : (string, int) Hashtbl.t;
  locals : string list;
}

exception Error of string * Ast.loc

let err loc fmt = Printf.ksprintf (fun msg -> raise (Error (msg, loc))) fmt

let split_qualified loc name =
  match String.index_opt name '.' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> err loc "internal: unqualified packet field %s" name

let build_tables (prog : Ast.program) =
  let field_index = Hashtbl.create 16 in
  List.iteri
    (fun i (name, loc) ->
      if Hashtbl.mem field_index name then err loc "duplicate packet field %s" name;
      Hashtbl.add field_index name i)
    prog.packet_fields;
  let reg_index = Hashtbl.create 16 in
  let regs =
    List.mapi
      (fun i (r : Ast.reg_decl) ->
        if Hashtbl.mem reg_index r.r_name then err r.r_loc "duplicate register %s" r.r_name;
        if Hashtbl.mem field_index r.r_name then
          err r.r_loc "register %s collides with a packet field" r.r_name;
        Hashtbl.add reg_index r.r_name i;
        let size =
          match r.r_size with
          | None -> 1
          | Some s when s <= 0 -> err r.r_loc "register %s: size must be positive" r.r_name
          | Some s -> s
        in
        if List.length r.r_init > size then
          err r.r_loc "register %s: %d initializers for size %d" r.r_name
            (List.length r.r_init) size;
        Mp5_banzai.Config.reg ~name:r.r_name ~size ~init:(Array.of_list r.r_init) ())
      prog.regs
  in
  let table_index = Hashtbl.create 4 in
  let tables =
    List.mapi
      (fun i (t : Ast.table_decl) ->
        if Hashtbl.mem table_index t.t_name then err t.t_loc "duplicate table %s" t.t_name;
        if Hashtbl.mem reg_index t.t_name then
          err t.t_loc "table %s collides with a register" t.t_name;
        if Hashtbl.mem field_index t.t_name then
          err t.t_loc "table %s collides with a packet field" t.t_name;
        if t.t_name = "hash" then err t.t_loc "table cannot be named 'hash'";
        if t.t_arity <= 0 then err t.t_loc "table %s: arity must be positive" t.t_name;
        Hashtbl.add table_index t.t_name i;
        Mp5_banzai.Table.create ~name:t.t_name ~arity:t.t_arity ())
      prog.tables
  in
  (field_index, reg_index, Array.of_list regs, table_index, Array.of_list tables)

let check (prog : Ast.program) =
  let field_index, reg_index, regs, table_index, tables = build_tables prog in
  let is_array name =
    match List.find_opt (fun (r : Ast.reg_decl) -> r.r_name = name) prog.regs with
    | Some r -> r.r_size <> None
    | None -> false
  in
  let locals = Hashtbl.create 16 in
  let locals_order = ref [] in
  let check_field loc qualified =
    let prefix, field = split_qualified loc qualified in
    if prefix <> prog.param then
      err loc "unknown struct %s (the packet parameter is %s)" prefix prog.param;
    if not (Hashtbl.mem field_index field) then err loc "unknown packet field %s" field
  in
  let rec check_expr (e : Ast.expr) =
    match e.e with
    | Ast.Int _ -> ()
    | Ast.Packet_field q -> check_field e.e_loc q
    | Ast.Var name ->
        if Hashtbl.mem locals name then ()
        else if Hashtbl.mem reg_index name then begin
          if is_array name then
            err e.e_loc "register array %s must be indexed (%s[...])" name name
        end
        else err e.e_loc "unknown variable %s" name
    | Ast.Reg_read (name, idx) ->
        if not (Hashtbl.mem reg_index name) then err e.e_loc "unknown register %s" name;
        (match (is_array name, idx) with
        | false, Some _ -> err e.e_loc "scalar register %s cannot be indexed" name
        | true, None -> err e.e_loc "register array %s must be indexed" name
        | _ -> ());
        Option.iter check_expr idx
    | Ast.Binop (_, a, b) ->
        check_expr a;
        check_expr b
    | Ast.Unop (_, a) -> check_expr a
    | Ast.Ternary (c, a, b) ->
        check_expr c;
        check_expr a;
        check_expr b
    | Ast.Hash args ->
        if args = [] then err e.e_loc "hash() needs at least one argument";
        List.iter check_expr args
    | Ast.Table_call (name, args) -> (
        match Hashtbl.find_opt table_index name with
        | None -> err e.e_loc "unknown table %s" name
        | Some id ->
            let arity = Mp5_banzai.Table.arity tables.(id) in
            if List.length args <> arity then
              err e.e_loc "table %s expects %d keys, got %d" name arity (List.length args);
            List.iter check_expr args)
  in
  let check_lvalue loc (lv : Ast.lvalue) =
    match lv with
    | Ast.L_packet_field q -> check_field loc q
    | Ast.L_var name ->
        if Hashtbl.mem locals name then ()
        else if Hashtbl.mem reg_index name then begin
          if is_array name then err loc "register array %s must be indexed" name
        end
        else err loc "assignment to undeclared variable %s" name
    | Ast.L_reg (name, idx) ->
        if not (Hashtbl.mem reg_index name) then err loc "unknown register %s" name;
        (match (is_array name, idx) with
        | false, Some _ -> err loc "scalar register %s cannot be indexed" name
        | true, None -> err loc "register array %s must be indexed" name
        | _ -> ());
        Option.iter check_expr idx
  in
  let rec check_stmt (s : Ast.stmt) =
    match s.s with
    | Ast.Local_decl (name, init) ->
        if Hashtbl.mem locals name then err s.s_loc "duplicate local variable %s" name;
        if Hashtbl.mem reg_index name then err s.s_loc "local %s shadows a register" name;
        Option.iter check_expr init;
        Hashtbl.add locals name ();
        locals_order := name :: !locals_order
    | Ast.Assign (lv, rhs) ->
        check_expr rhs;
        check_lvalue s.s_loc lv
    | Ast.If (cond, then_b, else_b) ->
        check_expr cond;
        List.iter check_stmt then_b;
        List.iter check_stmt else_b
  in
  List.iter check_stmt prog.body;
  {
    prog;
    fields = Array.of_list (List.map fst prog.packet_fields);
    field_index;
    regs;
    reg_index;
    tables;
    table_index;
    locals = List.rev !locals_order;
  }
