type stateless_op = { dst : int; rhs : Expr.t }

type output_source = Old_value | New_value

type stateful = {
  reg : int;
  index : Expr.t;
  guard : Expr.t option;
  update : Expr.t option;
  outputs : (int * output_source) list;
}

let stateless_op ~dst ~rhs =
  if Expr.uses_state rhs then invalid_arg "Atom.stateless_op: rhs uses State_val";
  { dst; rhs }

let stateful ~reg ~index ?guard ?update ?(outputs = []) () =
  if Expr.uses_state index then invalid_arg "Atom.stateful: index uses State_val";
  (match guard with
  | Some g when Expr.uses_state g -> invalid_arg "Atom.stateful: guard uses State_val"
  | _ -> ());
  { reg; index; guard; update; outputs }

let exec_stateless ~tables ~fields op =
  fields.(op.dst) <- Expr.eval_raw tables fields None op.rhs

type access_result = {
  accessed : bool;
  cell : int;
  old_value : int;
  new_value : int;
}

(* Hardware truncates the register address to the array size; emulate by a
   non-negative modulo so negative indices also land in range. *)
let clamp_index v size =
  let m = v mod size in
  if m < 0 then m + size else m

let resolve_index ~tables ~fields ~size atom =
  clamp_index (Expr.eval_raw tables fields None atom.index) size

(* Top-level recursion: a [List.iter] closure here would capture the two
   values and allocate on every stateful execution. *)
let rec write_outputs fields old_value new_value = function
  | [] -> ()
  | (dst, src) :: tl ->
      fields.(dst) <- (match src with Old_value -> old_value | New_value -> new_value);
      write_outputs fields old_value new_value tl

(* The record-free core: the accessed cell, or -1 when the guard is
   falsy. *)
let exec_cell ~tables ~fields ~reg_array atom =
  let size = Array.length reg_array in
  let cell = resolve_index ~tables ~fields ~size atom in
  let accessed =
    match atom.guard with
    | None -> true
    | Some g -> Expr.truthy (Expr.eval_raw tables fields None g)
  in
  if not accessed then -1
  else begin
    let old_value = reg_array.(cell) in
    let new_value =
      match atom.update with
      | None -> old_value
      | Some u -> Expr.eval_update tables fields old_value u
    in
    reg_array.(cell) <- new_value;
    write_outputs fields old_value new_value atom.outputs;
    cell
  end

(* The index expression is pure, so resolving it again here finds the
   cell [exec_cell] is about to touch. *)
let exec_stateful ~tables ~fields ~reg_array atom =
  let cell = resolve_index ~tables ~fields ~size:(Array.length reg_array) atom in
  let old_value = reg_array.(cell) in
  let accessed = exec_cell ~tables ~fields ~reg_array atom >= 0 in
  { accessed; cell; old_value; new_value = reg_array.(cell) }

(* --- kernel compilation ---

   Compile-once counterparts of [exec_stateless]/[exec_stateful]: the
   returned closures never touch an [Expr.t] and allocate nothing, which
   is what lets the cycle-level simulator drop AST interpretation from
   its hot loop.  Results are bit-identical to the exec_* functions. *)

let compile_stateless ~tables op =
  let k = Expr.compile tables ~state:None op.rhs in
  let dst = op.dst in
  fun frame -> Expr.setf frame dst (k frame)

let compile_stateful ~tables atom =
  let index_k = Expr.compile tables ~state:None atom.index in
  let guard_k =
    match atom.guard with
    | None -> None
    | Some g -> Some (Expr.compile tables ~state:None g)
  in
  (* The update closure reads the old cell value through this ref — see
     {!Expr.compile}; the kernel below stores it there before the call. *)
  let state_cell = ref 0 in
  let update_k =
    match atom.update with
    | None -> (fun _ -> !state_cell)
    | Some u -> Expr.compile tables ~state:(Some state_cell) u
  in
  (* Outputs split into parallel arrays: reading them in the per-packet
     loop allocates nothing. *)
  let outs = Array.of_list atom.outputs in
  let out_dst = Array.map fst outs in
  let out_old = Array.map (fun (_, src) -> src = Old_value) outs in
  let n_out = Array.length outs in
  fun frame reg_array cell_hint ->
    let cell =
      if cell_hint >= 0 then cell_hint
      else clamp_index (index_k frame) (Array.length reg_array)
    in
    let accessed =
      match guard_k with None -> true | Some g -> Expr.truthy (g frame)
    in
    if not accessed then -1
    else begin
      let old_value = Array.unsafe_get reg_array cell in
      state_cell := old_value;
      let new_value = update_k frame in
      Array.unsafe_set reg_array cell new_value;
      for i = 0 to n_out - 1 do
        Expr.setf frame out_dst.(i) (if out_old.(i) then old_value else new_value)
      done;
      cell
    end

let pp_stateless ppf op = Format.fprintf ppf "f%d := %a" op.dst Expr.pp op.rhs

let pp_output ppf (dst, src) =
  Format.fprintf ppf "f%d <- %s" dst (match src with Old_value -> "old" | New_value -> "new")

let pp_stateful ppf a =
  Format.fprintf ppf "reg%d[%a]" a.reg Expr.pp a.index;
  (match a.guard with
  | None -> ()
  | Some g -> Format.fprintf ppf " if %a" Expr.pp g);
  (match a.update with
  | None -> Format.fprintf ppf " (read)"
  | Some u -> Format.fprintf ppf " := %a" Expr.pp u);
  if a.outputs <> [] then
    Format.fprintf ppf " {%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_output)
      a.outputs
