let binop_symbol : Ast.binop -> string = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/" | Ast.Mod -> "%"
  | Ast.Bit_and -> "&" | Ast.Bit_or -> "|" | Ast.Bit_xor -> "^"
  | Ast.Shl -> "<<" | Ast.Shr -> ">>"
  | Ast.Eq -> "==" | Ast.Ne -> "!=" | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">"
  | Ast.Ge -> ">=" | Ast.Log_and -> "&&" | Ast.Log_or -> "||"

let rec expr ppf (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int n -> if n < 0 then Format.fprintf ppf "(%d)" n else Format.fprintf ppf "%d" n
  | Ast.Packet_field q -> Format.pp_print_string ppf q
  | Ast.Var v -> Format.pp_print_string ppf v
  | Ast.Reg_read (r, None) -> Format.pp_print_string ppf r
  | Ast.Reg_read (r, Some i) -> Format.fprintf ppf "%s[%a]" r expr i
  | Ast.Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" expr a (binop_symbol op) expr b
  | Ast.Unop (Ast.Neg, a) -> Format.fprintf ppf "(-%a)" expr a
  | Ast.Unop (Ast.Log_not, a) -> Format.fprintf ppf "(!%a)" expr a
  | Ast.Unop (Ast.Bit_not, a) -> Format.fprintf ppf "(~%a)" expr a
  | Ast.Ternary (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" expr c expr a expr b
  | Ast.Hash args -> Format.fprintf ppf "hash(%a)" args_pp args
  | Ast.Table_call (name, args) -> Format.fprintf ppf "%s(%a)" name args_pp args

and args_pp ppf args =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") expr ppf args

let lvalue ppf = function
  | Ast.L_packet_field q -> Format.pp_print_string ppf q
  | Ast.L_var v -> Format.pp_print_string ppf v
  | Ast.L_reg (r, None) -> Format.pp_print_string ppf r
  | Ast.L_reg (r, Some i) -> Format.fprintf ppf "%s[%a]" r expr i

let rec stmt_indented indent ppf (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  match s.Ast.s with
  | Ast.Assign (lv, rhs) -> Format.fprintf ppf "%s%a = %a;" pad lvalue lv expr rhs
  | Ast.Local_decl (name, None) -> Format.fprintf ppf "%sint %s;" pad name
  | Ast.Local_decl (name, Some init) -> Format.fprintf ppf "%sint %s = %a;" pad name expr init
  | Ast.If (cond, then_b, else_b) ->
      Format.fprintf ppf "%sif (%a) {@," pad expr cond;
      List.iter (fun s -> Format.fprintf ppf "%a@," (stmt_indented (indent + 4)) s) then_b;
      if else_b = [] then Format.fprintf ppf "%s}" pad
      else begin
        Format.fprintf ppf "%s} else {@," pad;
        List.iter (fun s -> Format.fprintf ppf "%a@," (stmt_indented (indent + 4)) s) else_b;
        Format.fprintf ppf "%s}" pad
      end

let program ppf (p : Ast.program) =
  Format.fprintf ppf "@[<v>struct Packet {@,";
  List.iter (fun (f, _) -> Format.fprintf ppf "    int %s;@," f) p.Ast.packet_fields;
  Format.fprintf ppf "};@,@,";
  List.iter
    (fun (r : Ast.reg_decl) ->
      (match r.Ast.r_size with
      | None -> Format.fprintf ppf "int %s" r.Ast.r_name
      | Some s -> Format.fprintf ppf "int %s[%d]" r.Ast.r_name s);
      (match r.Ast.r_init with
      | [] -> ()
      | [ v ] when r.Ast.r_size = None -> Format.fprintf ppf " = %d" v
      | vs ->
          Format.fprintf ppf " = {%s}" (String.concat ", " (List.map string_of_int vs)));
      Format.fprintf ppf ";@,")
    p.Ast.regs;
  List.iter
    (fun (t : Ast.table_decl) -> Format.fprintf ppf "table %s(%d);@," t.Ast.t_name t.Ast.t_arity)
    p.Ast.tables;
  Format.fprintf ppf "@,void %s(struct Packet %s) {@," p.Ast.func_name p.Ast.param;
  List.iter (fun s -> Format.fprintf ppf "%a@," (stmt_indented 4) s) p.Ast.body;
  Format.fprintf ppf "}@]@."
