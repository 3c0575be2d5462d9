(* Is the expression guaranteed to evaluate to 0 or 1? *)
let rec boolean = function
  | Expr.Binop
      ( ( Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Log_and
        | Expr.Log_or ),
        _,
        _ ) ->
      true
  | Expr.Unop (Expr.Log_not, _) -> true
  | Expr.Const (0 | 1) -> true
  | Expr.Ternary (_, a, b) -> boolean a && boolean b
  | _ -> false

(* Complementary predicates: [a] is truthy exactly when [b] is falsy.
   Syntactic: one is the logical negation of the other, or they are the
   same comparison with the operator inverted. *)
let complementary a b =
  let inverse = function
    | Expr.Eq -> Some Expr.Ne
    | Expr.Ne -> Some Expr.Eq
    | Expr.Lt -> Some Expr.Ge
    | Expr.Ge -> Some Expr.Lt
    | Expr.Gt -> Some Expr.Le
    | Expr.Le -> Some Expr.Gt
    | _ -> None
  in
  match (a, b) with
  | Expr.Unop (Expr.Log_not, x), y when Expr.equal x y -> true
  | x, Expr.Unop (Expr.Log_not, y) when Expr.equal x y -> true
  | Expr.Binop (opa, xa, ya), Expr.Binop (opb, xb, yb)
    when Expr.equal xa xb && Expr.equal ya yb ->
      inverse opa = Some opb
  | _ -> false

let eval_const e = Expr.eval ~fields:[||] ~state:None e

(* Substitute the known truth value of [cond] (and of its complement)
   into [e] — sound because expressions are pure, so any occurrence of
   the branch condition inside an arm evaluates to the assumed value. *)
(* [truth_ctx] marks positions whose value is only ever tested for truth
   (operands of && / || / !, ternary conditions): there a truthy
   condition may be replaced by 1 even when it is not 0/1-valued. *)
let rec assume ?(truth_ctx = false) cond value e =
  match e with
  (* Nested selections on the same (or complementary) condition collapse
     structurally, whatever the condition's value set. *)
  | Expr.Ternary (c, a, b) when Expr.equal c cond ->
      assume ~truth_ctx cond value (if value = 1 then a else b)
  | Expr.Ternary (c, a, b) when complementary c cond ->
      assume ~truth_ctx cond value (if value = 1 then b else a)
  (* Value substitution: a falsy condition has value exactly 0; a truthy
     one has value 1 only when 0/1-valued or in a truthiness context. *)
  | e when Expr.equal e cond ->
      if value = 0 then Expr.Const 0
      else if truth_ctx || boolean cond then Expr.Const 1
      else e
  | e when complementary e cond ->
      if value = 1 then Expr.Const 0
      else if truth_ctx || boolean e then Expr.Const 1
      else e
  | Expr.Const _ | Expr.Field _ | Expr.State_val -> e
  | Expr.Unop (Expr.Log_not, a) -> Expr.Unop (Expr.Log_not, assume ~truth_ctx:true cond value a)
  | Expr.Unop (op, a) -> Expr.Unop (op, assume cond value a)
  | Expr.Binop (((Expr.Log_and | Expr.Log_or) as op), a, b) ->
      Expr.Binop (op, assume ~truth_ctx:true cond value a, assume ~truth_ctx:true cond value b)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, assume cond value a, assume cond value b)
  | Expr.Ternary (c, a, b) ->
      Expr.Ternary
        ( assume ~truth_ctx:true cond value c,
          assume ~truth_ctx cond value a,
          assume ~truth_ctx cond value b )
  | Expr.Hash args -> Expr.Hash (List.map (assume cond value) args)
  | Expr.Lookup (id, keys) -> Expr.Lookup (id, List.map (assume cond value) keys)

let rec rewrite e =
  match e with
  | Expr.Const _ | Expr.Field _ | Expr.State_val -> e
  | Expr.Unop (op, a) -> (
      let a = rewrite a in
      match (op, a) with
      | _, Expr.Const _ -> Expr.Const (eval_const (Expr.Unop (op, a)))
      | Expr.Log_not, Expr.Unop (Expr.Log_not, x) when boolean x -> x
      | _ -> Expr.Unop (op, a))
  | Expr.Binop (op, a, b) -> (
      let a = rewrite a and b = rewrite b in
      match (op, a, b) with
      (* Never fold across short-circuit state: Log_and/Log_or of consts
         is still fine. *)
      | _, Expr.Const _, Expr.Const _ -> Expr.Const (eval_const (Expr.Binop (op, a, b)))
      | (Expr.Add | Expr.Bit_or | Expr.Bit_xor), Expr.Const 0, x
      | (Expr.Add | Expr.Sub | Expr.Bit_or | Expr.Bit_xor | Expr.Shl | Expr.Shr), x, Expr.Const 0
        ->
          x
      | Expr.Mul, Expr.Const 1, x | (Expr.Mul | Expr.Div), x, Expr.Const 1 -> x
      | Expr.Mul, Expr.Const 0, _ | Expr.Mul, _, Expr.Const 0 -> Expr.Const 0
      | Expr.Log_and, Expr.Const c, x when Expr.truthy c && boolean x -> x
      | Expr.Log_and, Expr.Const c, _ when not (Expr.truthy c) -> Expr.Const 0
      | Expr.Log_or, Expr.Const c, _ when Expr.truthy c -> Expr.Const 1
      | Expr.Log_or, Expr.Const c, x when (not (Expr.truthy c)) && boolean x -> x
      | _ -> Expr.Binop (op, a, b))
  | Expr.Ternary (c, a, b) -> (
      let c = rewrite c in
      (* Each arm may assume the branch condition's truth value, which
         eliminates dead arms of fused predicate chains even when they
         are buried under arithmetic. *)
      let a = rewrite (assume c 1 a) and b = rewrite (assume c 0 b) in
      match (c, a, b) with
      | Expr.Const v, a, b -> if Expr.truthy v then a else b
      | _, a, b when Expr.equal a b -> a
      (* Rotate negated conditions so chains line up. *)
      | Expr.Unop (Expr.Log_not, c'), a, b -> rewrite (Expr.Ternary (c', b, a))
      | _ -> Expr.Ternary (c, a, b))
  | Expr.Hash args -> (
      let args = List.map rewrite args in
      match
        List.for_all (function Expr.Const _ -> true | _ -> false) args
      with
      | true -> Expr.Const (eval_const (Expr.Hash args))
      | false -> Expr.Hash args)
  | Expr.Lookup (id, keys) -> Expr.Lookup (id, List.map rewrite keys)

let rec expr e =
  let e' = rewrite e in
  if Expr.equal e' e then e else expr e'

(* Truthiness-preserving normalisation for predicates: guards are only
   ever tested for truth, so [x || x -> x] and [x || !x -> 1] are sound
   here even when [x] is not 0/1-valued. *)
(* (a && x) || (a && y) -> a && (x || y), matching the common factor on
   either side of each conjunction. *)
let factor_or a b =
  let conj = function Expr.Binop (Expr.Log_and, x, y) -> Some (x, y) | _ -> None in
  match (conj a, conj b) with
  | Some (a1, a2), Some (b1, b2) ->
      let pick c rest1 rest2 =
        Some (Expr.Binop (Expr.Log_and, c, Expr.Binop (Expr.Log_or, rest1, rest2)))
      in
      if Expr.equal a1 b1 then pick a1 a2 b2
      else if Expr.equal a1 b2 then pick a1 a2 b1
      else if Expr.equal a2 b1 then pick a2 a1 b2
      else if Expr.equal a2 b2 then pick a2 a1 b1
      else None
  | _ -> None

(* a || (a && x) -> a, and the mirrored forms. *)
let absorbs a b =
  match b with
  | Expr.Binop (Expr.Log_and, x, y) -> Expr.equal a x || Expr.equal a y
  | _ -> false

let rec pred_rewrite p =
  match p with
  | Expr.Binop (Expr.Log_or, a, b) -> (
      let a = pred_rewrite a and b = pred_rewrite b in
      match (a, b) with
      | Expr.Const v, x | x, Expr.Const v ->
          if Expr.truthy v then Expr.Const 1 else x
      | a, b when Expr.equal a b -> a
      | a, b when complementary a b -> Expr.Const 1
      | a, b when absorbs a b -> a
      | a, b when absorbs b a -> b
      | a, b -> (
          match factor_or a b with
          | Some f -> pred_rewrite f
          | None -> Expr.Binop (Expr.Log_or, a, b)))
  | Expr.Binop (Expr.Log_and, a, b) -> (
      let a = pred_rewrite a and b = pred_rewrite b in
      match (a, b) with
      | Expr.Const v, x | x, Expr.Const v ->
          if Expr.truthy v then x else Expr.Const 0
      | a, b when Expr.equal a b -> a
      | a, b when complementary a b -> Expr.Const 0
      | _ -> Expr.Binop (Expr.Log_and, a, b))
  | _ -> p

let rec pred p =
  let p' = pred_rewrite (expr p) in
  if Expr.equal p' p then p else pred p'

let stateful (a : Atom.stateful) =
  let simplified_guard =
    match Option.map pred a.Atom.guard with
    (* A constant-true guard is no guard; constant-false guards must be
       kept (they preserve "never accesses" semantics). *)
    | Some (Expr.Const v) when Expr.truthy v -> None
    | g -> g
  in
  {
    a with
    Atom.index = expr a.Atom.index;
    guard = simplified_guard;
    update = Option.map expr a.Atom.update;
  }
