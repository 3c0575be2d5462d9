type binop =
  | Add | Sub | Mul | Div | Mod
  | Bit_and | Bit_or | Bit_xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Log_and | Log_or

type unop = Neg | Log_not | Bit_not

type t =
  | Const of int
  | Field of int
  | State_val
  | Binop of binop * t * t
  | Unop of unop * t
  | Ternary of t * t * t
  | Hash of t list
  | Lookup of int * t list

let norm32 v =
  let masked = v land 0xFFFFFFFF in
  if masked land 0x80000000 <> 0 then masked - 0x100000000 else masked

let truthy v = v <> 0
let of_bool b = if b then 1 else 0

let eval_binop op a b =
  match op with
  | Add -> norm32 (a + b)
  | Sub -> norm32 (a - b)
  | Mul -> norm32 (a * b)
  | Div -> if b = 0 then 0 else norm32 (a / b)
  | Mod -> if b = 0 then 0 else norm32 (a mod b)
  | Bit_and -> norm32 (a land b)
  | Bit_or -> norm32 (a lor b)
  | Bit_xor -> norm32 (a lxor b)
  | Shl -> norm32 (a lsl (b land 31))
  | Shr -> norm32 ((a land 0xFFFFFFFF) lsr (b land 31))
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | Log_and -> of_bool (truthy a && truthy b)
  | Log_or -> of_bool (truthy a || truthy b)

(* The evaluator runs for every access of every packet in the golden
   machine, so the recursion passes plain arguments — re-supplying the
   optional [?tables] per node would box a [Some] at every step, and the
   cell value travels unboxed as [has_state]/[state]. *)
let rec eval_loop tables fields has_state state e =
  match e with
  | Const c -> norm32 c
  | Field i ->
      if i < 0 || i >= Array.length fields then
        invalid_arg (Printf.sprintf "Expr.eval: field %d out of range" i);
      fields.(i)
  | State_val ->
      if has_state then state else invalid_arg "Expr.eval: State_val outside a stateful atom"
  | Binop (Log_and, a, b) ->
      (* Short-circuit, like the C semantics Domino inherits. *)
      if truthy (eval_loop tables fields has_state state a) then
        of_bool (truthy (eval_loop tables fields has_state state b))
      else 0
  | Binop (Log_or, a, b) ->
      if truthy (eval_loop tables fields has_state state a) then 1
      else of_bool (truthy (eval_loop tables fields has_state state b))
  | Binop (op, a, b) ->
      eval_binop op
        (eval_loop tables fields has_state state a)
        (eval_loop tables fields has_state state b)
  | Unop (Neg, a) -> norm32 (-eval_loop tables fields has_state state a)
  | Unop (Log_not, a) -> of_bool (not (truthy (eval_loop tables fields has_state state a)))
  | Unop (Bit_not, a) -> norm32 (lnot (eval_loop tables fields has_state state a))
  | Ternary (c, a, b) ->
      if truthy (eval_loop tables fields has_state state c) then
        eval_loop tables fields has_state state a
      else eval_loop tables fields has_state state b
  | Hash [ a ] ->
      (* Single-key hashes (the common case) skip the argument list. *)
      Mp5_util.Hashing.fnv1a1 (eval_loop tables fields has_state state a) land 0x7FFFFFFF
  | Hash args ->
      (* [fnv1a vs] is a fresh fold fed the seed 0, then each value: the
         arguments feed it left to right as they are evaluated, with no
         list of values in between. *)
      let st = Mp5_util.Hashing.start () in
      Mp5_util.Hashing.feed st 0;
      hash_args tables fields has_state state st args;
      Mp5_util.Hashing.value st land 0x7FFFFFFF
  | Lookup (id, keys) ->
      if id < 0 || id >= Array.length tables then
        invalid_arg (Printf.sprintf "Expr.eval: table %d out of range" id);
      norm32 (Table.lookup tables.(id) (List.map (eval_loop tables fields has_state state) keys))

and hash_args tables fields has_state state st = function
  | [] -> ()
  | a :: tl ->
      Mp5_util.Hashing.feed st (eval_loop tables fields has_state state a);
      hash_args tables fields has_state state st tl

let eval_raw tables fields state e =
  match state with
  | None -> eval_loop tables fields false 0 e
  | Some v -> eval_loop tables fields true v e

let eval ?(tables = [||]) ~fields ~state e = eval_raw tables fields state e
let eval_update tables fields old e = eval_loop tables fields true old e

(* --- closure compilation ---

   [compile] turns an expression tree into a closed OCaml closure once,
   so the per-packet path of the cycle-level simulator never walks the
   AST: constructor dispatch, operator dispatch and constant operands are
   all resolved at compile time.  The closures must be *bit-identical* to
   [eval_raw] on every input, including error behaviour — the simulator
   keeps the interpreter behind an escape hatch and differential tests
   hold the two paths to exact equality. *)

(* Without flambda an unknown 2-argument application goes through
   [caml_apply2], which is what makes naive closure trees *slower* than a
   tight interpreter.  So compiled closures are arity-1 ([frame -> int]);
   the register cell value is threaded through an [int ref] the atom
   kernel writes before invoking the update closure; and the binop
   dispatch happens once here, at compile time, with the arithmetic
   inline in the returned closure — an interior node costs one cheap
   arity-1 indirect call, not a [caml_apply2] chain.

   The frame is a window into flat memory: [base.(off .. off+len-1)] are
   this packet's header fields.  With the struct-of-arrays packet slab
   the simulator retargets one scratch frame per packet (two stores)
   instead of allocating or copying a per-packet array; a standalone
   [int array] is viewed via [frame_of_array]. *)

type frame = { mutable base : int array; mutable off : int; mutable len : int }

let frame_of_array a = { base = a; off = 0; len = Array.length a }

let getf f i =
  if i < 0 || i >= f.len then
    invalid_arg (Printf.sprintf "Expr.eval: field %d out of range" i);
  Array.unsafe_get f.base (f.off + i)

(* Bounds failure matches [fields.(i) <- v] on a plain array, which is
   what the compiled stateless path historically did. *)
let setf f i v =
  if i < 0 || i >= f.len then invalid_arg "index out of bounds";
  Array.unsafe_set f.base (f.off + i) v

(* Operand evaluation order matches [eval_raw]: left, then right (OCaml's
   own [e1 op e2] order is unspecified, hence the explicit lets). *)
let fuse2 op ka kb =
  match op with
  | Add -> fun f -> let a = ka f in let b = kb f in norm32 (a + b)
  | Sub -> fun f -> let a = ka f in let b = kb f in norm32 (a - b)
  | Mul -> fun f -> let a = ka f in let b = kb f in norm32 (a * b)
  | Div -> fun f -> let a = ka f in let b = kb f in if b = 0 then 0 else norm32 (a / b)
  | Mod -> fun f -> let a = ka f in let b = kb f in if b = 0 then 0 else norm32 (a mod b)
  | Bit_and -> fun f -> let a = ka f in let b = kb f in norm32 (a land b)
  | Bit_or -> fun f -> let a = ka f in let b = kb f in norm32 (a lor b)
  | Bit_xor -> fun f -> let a = ka f in let b = kb f in norm32 (a lxor b)
  | Shl -> fun f -> let a = ka f in let b = kb f in norm32 (a lsl (b land 31))
  | Shr -> fun f -> let a = ka f in let b = kb f in norm32 ((a land 0xFFFFFFFF) lsr (b land 31))
  | Eq -> fun f -> let a = ka f in let b = kb f in of_bool (a = b)
  | Ne -> fun f -> let a = ka f in let b = kb f in of_bool (a <> b)
  | Lt -> fun f -> let a = ka f in let b = kb f in of_bool (a < b)
  | Le -> fun f -> let a = ka f in let b = kb f in of_bool (a <= b)
  | Gt -> fun f -> let a = ka f in let b = kb f in of_bool (a > b)
  | Ge -> fun f -> let a = ka f in let b = kb f in of_bool (a >= b)
  (* Short-circuit, like the C semantics Domino inherits. *)
  | Log_and -> fun f -> if truthy (ka f) then of_bool (truthy (kb f)) else 0
  | Log_or -> fun f -> if truthy (ka f) then 1 else of_bool (truthy (kb f))

(* Right operand is a constant (already [norm32]ed).  The left closure is
   still invoked even when the result is predetermined (Div/Mod by zero)
   because the interpreter evaluates both operands. *)
let fuse_r op ka b =
  match op with
  | Add -> fun f -> norm32 (ka f + b)
  | Sub -> fun f -> norm32 (ka f - b)
  | Mul -> fun f -> norm32 (ka f * b)
  | Div -> if b = 0 then fun f -> ignore (ka f); 0 else fun f -> norm32 (ka f / b)
  | Mod -> if b = 0 then fun f -> ignore (ka f); 0 else fun f -> norm32 (ka f mod b)
  | Bit_and -> fun f -> norm32 (ka f land b)
  | Bit_or -> fun f -> norm32 (ka f lor b)
  | Bit_xor -> fun f -> norm32 (ka f lxor b)
  | Shl -> let s = b land 31 in fun f -> norm32 (ka f lsl s)
  | Shr -> let s = b land 31 in fun f -> norm32 ((ka f land 0xFFFFFFFF) lsr s)
  | Eq -> fun f -> of_bool (ka f = b)
  | Ne -> fun f -> of_bool (ka f <> b)
  | Lt -> fun f -> of_bool (ka f < b)
  | Le -> fun f -> of_bool (ka f <= b)
  | Gt -> fun f -> of_bool (ka f > b)
  | Ge -> fun f -> of_bool (ka f >= b)
  | Log_and -> let vb = of_bool (truthy b) in fun f -> if truthy (ka f) then vb else 0
  | Log_or -> let vb = of_bool (truthy b) in fun f -> if truthy (ka f) then 1 else vb

(* Left operand is a constant (already [norm32]ed).  The logical ops drop
   the right closure entirely when the constant decides the result — the
   interpreter would not have evaluated it either. *)
let fuse_l op a kb =
  match op with
  | Add -> fun f -> norm32 (a + kb f)
  | Sub -> fun f -> norm32 (a - kb f)
  | Mul -> fun f -> norm32 (a * kb f)
  | Div -> fun f -> let b = kb f in if b = 0 then 0 else norm32 (a / b)
  | Mod -> fun f -> let b = kb f in if b = 0 then 0 else norm32 (a mod b)
  | Bit_and -> fun f -> norm32 (a land kb f)
  | Bit_or -> fun f -> norm32 (a lor kb f)
  | Bit_xor -> fun f -> norm32 (a lxor kb f)
  | Shl -> fun f -> norm32 (a lsl (kb f land 31))
  | Shr -> let a = a land 0xFFFFFFFF in fun f -> norm32 (a lsr (kb f land 31))
  | Eq -> fun f -> of_bool (a = kb f)
  | Ne -> fun f -> of_bool (a <> kb f)
  | Lt -> fun f -> of_bool (a < kb f)
  | Le -> fun f -> of_bool (a <= kb f)
  | Gt -> fun f -> of_bool (a > kb f)
  | Ge -> fun f -> of_bool (a >= kb f)
  | Log_and -> if truthy a then fun f -> of_bool (truthy (kb f)) else fun _ -> 0
  | Log_or -> if truthy a then fun _ -> 1 else fun f -> of_bool (truthy (kb f))

(* [state]: [Some cell] inside a stateful update — [State_val] reads
   [!cell] at call time (the atom kernel stores the old cell value there
   before invoking the update closure).  [None] everywhere else, where
   [State_val] compiles to the same [Invalid_argument] the interpreter
   raises — but only if actually reached, so dead branches behave
   identically. *)
let rec comp tables ~state e : frame -> int =
  match e with
  | Const c ->
      let v = norm32 c in
      fun _ -> v
  | Field i -> fun fields -> getf fields i
  | State_val -> (
      match state with
      | Some cell -> fun _ -> !cell
      | None -> fun _ -> invalid_arg "Expr.eval: State_val outside a stateful atom")
  | Binop (op, Const a, Const b) ->
      (* [eval_binop] agrees with the short-circuit semantics on
         constants, so this fold also covers Log_and/Log_or. *)
      let v = eval_binop op (norm32 a) (norm32 b) in
      fun _ -> v
  | Binop (op, a, Const b) -> fuse_r op (comp tables ~state a) (norm32 b)
  | Binop (op, Const a, b) -> fuse_l op (norm32 a) (comp tables ~state b)
  | Binop (op, a, b) -> fuse2 op (comp tables ~state a) (comp tables ~state b)
  | Unop (Neg, a) ->
      let ka = comp tables ~state a in
      fun fields -> norm32 (-ka fields)
  | Unop (Log_not, a) ->
      let ka = comp tables ~state a in
      fun fields -> of_bool (not (truthy (ka fields)))
  | Unop (Bit_not, a) ->
      let ka = comp tables ~state a in
      fun fields -> norm32 (lnot (ka fields))
  | Ternary (Const c, a, b) ->
      (* The interpreter never evaluates the untaken branch, so folding a
         constant condition down to that branch is bit-identical. *)
      if truthy (norm32 c) then comp tables ~state a else comp tables ~state b
  | Ternary (c, a, b) ->
      let kc = comp tables ~state c
      and ka = comp tables ~state a
      and kb = comp tables ~state b in
      fun fields -> if truthy (kc fields) then ka fields else kb fields
  | Hash [ Field i ] ->
      (* The ubiquitous [hash(pkt.field)] index shape: no inner call. *)
      fun fields -> Mp5_util.Hashing.fnv1a1 (getf fields i) land 0x7FFFFFFF
  | Hash [ a ] ->
      let ka = comp tables ~state a in
      fun fields -> Mp5_util.Hashing.fnv1a1 (ka fields) land 0x7FFFFFFF
  | Hash [ Field i; Field j ] ->
      fun fields ->
        let a = getf fields i in
        let b = getf fields j in
        Mp5_util.Hashing.fnv1a2 a b land 0x7FFFFFFF
  | Hash [ a; b ] ->
      let ka = comp tables ~state a and kb = comp tables ~state b in
      fun fields ->
        let a = ka fields in
        let b = kb fields in
        Mp5_util.Hashing.fnv1a2 a b land 0x7FFFFFFF
  | Hash args ->
      (* The interpreter's fold — seed 0, then each key left to right —
         through a state this node owns: nothing allocated per call. *)
      let ks = Array.of_list (List.map (comp tables ~state) args) in
      let st = Mp5_util.Hashing.start () in
      fun fields ->
        Mp5_util.Hashing.reset st;
        Mp5_util.Hashing.feed st 0;
        for i = 0 to Array.length ks - 1 do
          Mp5_util.Hashing.feed st ((Array.unsafe_get ks i) fields)
        done;
        Mp5_util.Hashing.value st land 0x7FFFFFFF
  | Lookup (id, keys) ->
      if id < 0 || id >= Array.length tables then
        fun _ -> invalid_arg (Printf.sprintf "Expr.eval: table %d out of range" id)
      else
        let tbl = tables.(id) in
        (* Keys evaluated left to right, as the interpreter's [List.map]
           does, into an array this node owns. *)
        let ks = Array.of_list (List.map (comp tables ~state) keys) in
        let vs = Array.make (Array.length ks) 0 in
        fun fields ->
          for i = 0 to Array.length ks - 1 do
            Array.unsafe_set vs i ((Array.unsafe_get ks i) fields)
          done;
          norm32 (Table.lookup_keys tbl vs)

let compile tables ~state e = comp tables ~state e

let rec uses_state = function
  | Const _ | Field _ -> false
  | State_val -> true
  | Binop (_, a, b) -> uses_state a || uses_state b
  | Unop (_, a) -> uses_state a
  | Ternary (c, a, b) -> uses_state c || uses_state a || uses_state b
  | Hash args | Lookup (_, args) -> List.exists uses_state args

let fields_used e =
  let acc = ref [] in
  let rec go = function
    | Const _ | State_val -> ()
    | Field i -> acc := i :: !acc
    | Binop (_, a, b) -> go a; go b
    | Unop (_, a) -> go a
    | Ternary (c, a, b) -> go c; go a; go b
    | Hash args | Lookup (_, args) -> List.iter go args
  in
  go e;
  List.sort_uniq compare !acc

let rec depth = function
  | Const _ | Field _ | State_val -> 0
  | Binop (_, a, b) -> 1 + max (depth a) (depth b)
  | Unop (_, a) -> 1 + depth a
  | Ternary (c, a, b) -> 1 + max (depth c) (max (depth a) (depth b))
  | Hash args | Lookup (_, args) -> 1 + List.fold_left (fun m a -> max m (depth a)) 0 args

let rec size = function
  | Const _ | Field _ | State_val -> 1
  | Binop (_, a, b) -> 1 + size a + size b
  | Unop (_, a) -> 1 + size a
  | Ternary (c, a, b) -> 1 + size c + size a + size b
  | Hash args | Lookup (_, args) -> 1 + List.fold_left (fun m a -> m + size a) 0 args

let equal = ( = )

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Bit_and -> "&" | Bit_or -> "|" | Bit_xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Log_and -> "&&" | Log_or -> "||"

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%d" c
  | Field i -> Format.fprintf ppf "f%d" i
  | State_val -> Format.fprintf ppf "$state"
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_symbol op) pp b
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp a
  | Unop (Log_not, a) -> Format.fprintf ppf "(!%a)" pp a
  | Unop (Bit_not, a) -> Format.fprintf ppf "(~%a)" pp a
  | Ternary (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b
  | Hash args ->
      Format.fprintf ppf "hash(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
        args
  | Lookup (id, keys) ->
      Format.fprintf ppf "table%d(%a)" id
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
        keys
