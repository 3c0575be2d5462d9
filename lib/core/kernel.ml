module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config

type guard = G_true | G_pred of (Expr.frame -> bool) | G_unknown

type index = I_cell of (Expr.frame -> int) | I_none

type t = {
  stateless : (Expr.frame -> unit) array;
  exec : (Expr.frame -> int array -> int -> int) array;
  guard : guard array;
  index : index array;
}

let nop (_ : Expr.frame) = ()

(* Bridge for the interpreter arm, which walks ASTs over a plain
   [int array]: materialise the frame's window (no copy when the frame
   covers a whole array) ... *)
let frame_fields (f : Expr.frame) =
  if f.Expr.off = 0 && f.Expr.len = Array.length f.Expr.base then f.Expr.base
  else Array.sub f.Expr.base f.Expr.off f.Expr.len

(* ... and write mutations back when a copy was taken. *)
let frame_writeback (f : Expr.frame) fields =
  if fields != f.Expr.base then Array.blit fields 0 f.Expr.base f.Expr.off f.Expr.len

(* Fuse a stage's compiled stateless ops into one closure; the 0/1-op
   shapes skip the dispatch loop entirely. *)
let fuse = function
  | [||] -> nop
  | [| f |] -> f
  | fs ->
      fun fields ->
        for i = 0 to Array.length fs - 1 do
          (Array.unsafe_get fs i) fields
        done

(* Interpreter arm ([~compiled:false]): the same closure signatures, but
   each call walks the expression ASTs via [eval_raw]/[exec_*] exactly as
   the pre-kernel simulator did.  It exists as the reference that
   test_kernel holds the compiled arm to, program by program. *)
let interp_stateless tables ops =
  let rec go fields = function
    | [] -> ()
    | op :: tl ->
        Atom.exec_stateless ~tables ~fields op;
        go fields tl
  in
  match ops with
  | [] -> nop
  | ops ->
      fun frame ->
        let fields = frame_fields frame in
        go fields ops;
        frame_writeback frame fields

let clamp v size =
  let m = v mod size in
  if m < 0 then m + size else m

let create ~compiled (prog : Transform.t) =
  let config = prog.Transform.config in
  let tables = config.Config.tables in
  let stateless =
    Array.map
      (fun (s : Config.stage) ->
        if compiled then fuse (Array.of_list (List.map (Atom.compile_stateless ~tables) s.Config.stateless))
        else interp_stateless tables s.Config.stateless)
      config.Config.stages
  in
  let exec =
    Array.map
      (fun (a : Transform.access) ->
        let atom = a.Transform.atom in
        if compiled then Atom.compile_stateful ~tables atom
        else
          (* The interpreter reference deliberately ignores the resolved
             cell hint and recomputes the index from the expression — the
             assert in the simulator's exec step cross-checks the two. *)
          fun frame reg_array (_cell_hint : int) ->
            let fields = frame_fields frame in
            let r = Atom.exec_stateful ~tables ~fields ~reg_array atom in
            frame_writeback frame fields;
            if r.Atom.accessed then r.Atom.cell else -1)
      prog.Transform.accesses
  in
  let guard =
    Array.map
      (fun (a : Transform.access) ->
        match a.Transform.guard with
        | Transform.G_always -> G_true
        | Transform.G_resolved g ->
            if compiled then begin
              let k = Expr.compile tables ~state:None g in
              G_pred (fun frame -> Expr.truthy (k frame))
            end
            else
              G_pred
                (fun frame -> Expr.truthy (Expr.eval_raw tables (frame_fields frame) None g))
        | Transform.G_unresolved -> G_unknown)
      prog.Transform.accesses
  in
  let index =
    Array.map
      (fun (a : Transform.access) ->
        let size = config.Config.regs.(a.Transform.reg).Config.size in
        match a.Transform.index with
        | Transform.I_resolved idx ->
            if compiled then begin
              let k = Expr.compile tables ~state:None idx in
              I_cell (fun frame -> clamp (k frame) size)
            end
            else
              I_cell
                (fun frame -> clamp (Expr.eval_raw tables (frame_fields frame) None idx) size)
        | Transform.I_unresolved -> I_none)
      prog.Transform.accesses
  in
  { stateless; exec; guard; index }
