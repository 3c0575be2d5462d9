module Expr = Mp5_banzai.Expr
module Atom = Mp5_banzai.Atom
module Config = Mp5_banzai.Config
module Capability = Mp5_banzai.Capability

type guard_plan = G_always | G_resolved of Expr.t | G_unresolved

type index_plan = I_resolved of Expr.t | I_unresolved

type access = {
  acc_id : int;
  reg : int;
  stage : int;
  atom : Atom.stateful;
  guard : guard_plan;
  index : index_plan;
}

type t = {
  config : Config.t;
  accesses : access array;
  sharded : bool array;
}

(* Fields written by any stateful atom: expressions depending on them
   cannot be evaluated preemptively at packet arrival. *)
let stateful_taint (config : Config.t) =
  let taint = Hashtbl.create 16 in
  Array.iter
    (fun (stage : Config.stage) ->
      List.iter
        (fun (a : Atom.stateful) ->
          List.iter (fun (slot, _) -> Hashtbl.replace taint slot ()) a.outputs)
        stage.atoms)
    config.stages;
  taint

let is_resolvable taint e = not (List.exists (Hashtbl.mem taint) (Expr.fields_used e))

(* A packet accesses at most one array in a stage when the atoms' guards
   are pairwise mutually exclusive (e.g. the two arms of a conditional
   read, Figure 3's reg1/reg2).  Such stages need no serialization: the
   active access is known at address resolution (the guards must also be
   arrival-resolvable), so exactly one phantom is generated and the
   packet is steered to that array's pipeline — the other arrays' atoms
   see a false guard wherever the packet lands. *)
let mutually_exclusive taint (atoms : Atom.stateful list) =
  let resolvable g = is_resolvable taint g in
  let exclusive a b =
    match ((a : Atom.stateful).guard, (b : Atom.stateful).guard) with
    | Some ga, Some gb -> (
        match
          Mp5_banzai.Simplify.pred (Expr.Binop (Expr.Log_and, ga, gb))
        with
        | Expr.Const 0 -> true
        | _ -> false)
    | _ -> false
  in
  List.for_all
    (fun (a : Atom.stateful) ->
      match a.guard with Some g -> resolvable g | None -> false)
    atoms
  &&
  let rec pairs = function
    | [] -> true
    | a :: rest -> List.for_all (exclusive a) rest && pairs rest
  in
  pairs atoms

(* Serialize multi-array stages so a packet accesses at most one array
   per stage: stages with mutually exclusive guards already satisfy this;
   others are split across consecutive stages.  A program whose split
   form does not fit the machine's stage budget is rejected, naming the
   first stage that needs splitting: running it unsplit would schedule
   several phantoms per packet into one queue. *)
let serialize (limits : Capability.limits) taint (config : Config.t) =
  let needs_split (s : Config.stage) =
    List.length s.atoms > 1 && not (mutually_exclusive taint s.atoms)
  in
  let extra_needed =
    Array.fold_left
      (fun acc (s : Config.stage) ->
        acc + if needs_split s then List.length s.atoms - 1 else 0)
      0 config.stages
  in
  (* +1 accounts for the address-resolution stage prepended below. *)
  let needed = Array.length config.stages + 1 + extra_needed in
  match Array.find_index needs_split config.stages with
  | Some si when needed > limits.max_stages ->
      let arrays =
        List.map
          (fun (a : Atom.stateful) -> config.regs.(a.reg).Config.reg_name)
          config.stages.(si).atoms
      in
      Error
        (Printf.sprintf
           "serialization error: stage %d accesses arrays %s, which one packet may touch \
            together, so it must be split; the split program needs %d stages (with address \
            resolution), max_stages is %d"
           si (String.concat ", " arrays) needed limits.max_stages)
  | _ ->
      Ok
        (Array.to_list config.stages
        |> List.concat_map (fun (s : Config.stage) ->
               match s.atoms with
               | first :: rest when needs_split s ->
                   { s with Config.atoms = [ first ] }
                   :: List.map (fun a -> { Config.stateless = []; atoms = [ a ] }) rest
               | _ -> [ s ])
        |> Array.of_list)

let ( let+ ) r f = Result.map f r

let create ?(limits = Capability.default) ?(pad_to_stages = 0) ?flow_order
    (config : Config.t) =
  (* §3.4's packet-reordering fix: a "dummy" read-only register in the
     final stage, indexed by flow id, forces a phantom per packet so
     packets of one flow leave the pipeline in arrival order even when
     some of them are otherwise stateless. *)
  let config =
    match flow_order with
    | None -> config
    | Some (index, size) ->
        let reg_id = Array.length config.Config.regs in
        let atom = Atom.stateful ~reg:reg_id ~index () in
        {
          config with
          Config.regs =
            Array.append config.Config.regs [| Config.reg ~name:"$flow_order" ~size () |];
          stages =
            Array.append config.Config.stages
              [| { Config.stateless = []; atoms = [ atom ] } |];
        }
  in
  let taint = stateful_taint config in
  let+ stages = serialize limits taint config in
  let stages = Array.append [| Config.empty_stage |] stages in
  let pad = max 0 (pad_to_stages - Array.length stages) in
  let stages = Array.append stages (Array.make pad Config.empty_stage) in
  let config' = { config with Config.stages } in
  (match Config.validate config' with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Transform.transform: invalid input config: " ^ msg));
  let accesses = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun si (s : Config.stage) ->
      List.iter
        (fun (a : Atom.stateful) ->
          let guard =
            match a.guard with
            | None -> G_always
            | Some g when is_resolvable taint g -> G_resolved g
            | Some _ -> G_unresolved
          in
          let index =
            if is_resolvable taint a.index then I_resolved a.index else I_unresolved
          in
          let acc = { acc_id = !next; reg = a.reg; stage = si; atom = a; guard; index } in
          incr next;
          accesses := acc :: !accesses)
        s.atoms)
    config'.stages;
  let accesses = Array.of_list (List.rev !accesses) in
  let sharded = Array.make (Array.length config.regs) true in
  Array.iter
    (fun acc -> if acc.index = I_unresolved then sharded.(acc.reg) <- false)
    accesses;
  (* An array never accessed is irrelevant; mark unsharded for clarity. *)
  Array.iteri
    (fun r _ ->
      if not (Array.exists (fun acc -> acc.reg = r) accesses) then sharded.(r) <- false)
    config.regs;
  { config = config'; accesses; sharded }

let transform ?limits ?pad_to_stages ?flow_order config =
  match create ?limits ?pad_to_stages ?flow_order config with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let pp ppf t =
  Format.fprintf ppf "@[<v>transformed config (%d stages, stage 0 = address resolution):@,"
    (Array.length t.config.Config.stages);
  Array.iter
    (fun acc ->
      Format.fprintf ppf "access %d: reg%d (%s) at stage %d, guard %s, index %s@," acc.acc_id
        acc.reg
        t.config.Config.regs.(acc.reg).Config.reg_name acc.stage
        (match acc.guard with
        | G_always -> "always"
        | G_resolved _ -> "resolved"
        | G_unresolved -> "unresolved")
        (match acc.index with I_resolved _ -> "resolved" | I_unresolved -> "unresolved (pinned)"))
    t.accesses;
  Array.iteri
    (fun r sh ->
      Format.fprintf ppf "reg%d %s: %s@," r t.config.Config.regs.(r).Config.reg_name
        (if sh then "sharded" else "pinned"))
    t.sharded;
  Format.fprintf ppf "@]"
