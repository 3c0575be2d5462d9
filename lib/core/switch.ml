type t = {
  compiled : Mp5_domino.Compile.t;
  prog : Transform.t;
}

let create ?limits ?pad_to_stages ?flow_order src =
  match Mp5_domino.Compile.compile ?limits src with
  | Error e -> Error (Format.asprintf "%a" Mp5_domino.Compile.pp_error e)
  | Ok compiled ->
      Result.map
        (fun prog -> { compiled; prog })
        (Transform.create ?limits ?pad_to_stages ?flow_order compiled.config)

let create_exn ?limits ?pad_to_stages ?flow_order src =
  match create ?limits ?pad_to_stages ?flow_order src with
  | Ok t -> t
  | Error msg -> failwith msg

let config t = t.compiled.Mp5_domino.Compile.config

let field t name =
  match Mp5_banzai.Config.field_id (config t) name with
  | Some id when id < (config t).Mp5_banzai.Config.n_user_fields -> id
  | _ -> raise Not_found

let table t name =
  let env = t.compiled.Mp5_domino.Compile.env in
  match Hashtbl.find_opt env.Mp5_domino.Typecheck.table_index name with
  | Some id -> env.Mp5_domino.Typecheck.tables.(id)
  | None -> raise Not_found

let golden t trace = Mp5_banzai.Machine.run (config t) trace

let run ?loop ?params ?metrics ?events ?fault ?monitor ?prof ~k t trace =
  let params = match params with Some p -> p | None -> Sim.default_params ~k in
  Sim.run ?loop ?metrics ?events ?fault ?monitor ?prof params t.prog trace

let verify ?params ?metrics ?events ?fault ?monitor ?prof ~k ?flow_of t trace =
  let golden_result = golden t trace in
  let r = run ?params ?metrics ?events ?fault ?monitor ?prof ~k t trace in
  let report =
    Equiv.compare ~golden:golden_result ~n_packets:(Array.length trace) ~store:r.Sim.store
      ~headers_out:r.Sim.headers_out ~access_seqs:r.Sim.access_seqs ?flow_of
      ~exit_order:r.Sim.exit_order ()
  in
  (r, report)
