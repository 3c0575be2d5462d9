(* mp5c: the MP5 compiler driver.

   Compiles a Domino program and dumps any of the compilation artifacts:
   the PVSM, the lowered Banzai configuration, or the MP5-transformed
   configuration with its address-resolution plan.  Exits 0 on success,
   1 on a usage error and 2 on a program that does not compile. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run pretty dump_pvsm dump_config dump_mp5 max_stages atoms_per_stage file =
  let src = read_file file in
  if pretty then begin
    (match Mp5_domino.Parser.parse src with
    | ast -> Format.printf "%a" Mp5_domino.Pretty.program ast
    | exception Mp5_domino.Parser.Error (msg, loc) ->
        Format.eprintf "%s: parse error at %a: %s@." file Mp5_domino.Ast.pp_loc loc msg;
        exit 2
    | exception Mp5_domino.Lexer.Error (msg, loc) ->
        Format.eprintf "%s: lexing error at %a: %s@." file Mp5_domino.Ast.pp_loc loc msg;
        exit 2);
    exit 0
  end;
  let limits =
    {
      Mp5_banzai.Capability.default with
      max_stages;
      max_atoms_per_stage = atoms_per_stage;
    }
  in
  match Mp5_domino.Compile.compile ~limits src with
  | Error e ->
      Format.eprintf "%s: %a@." file Mp5_domino.Compile.pp_error e;
      exit 2
  | Ok t ->
      let nothing_requested = (not dump_pvsm) && (not dump_config) && not dump_mp5 in
      if dump_pvsm then
        Format.printf "=== PVSM ===@.%a@." Mp5_banzai.Config.pp t.pvsm;
      if dump_config || nothing_requested then
        Format.printf "=== Banzai configuration ===@.%a@." Mp5_banzai.Config.pp t.config;
      if dump_mp5 then begin
        match Mp5_core.Transform.create ~limits t.config with
        | Ok prog ->
            Format.printf "=== MP5 transformed program ===@.%a@." Mp5_core.Transform.pp prog;
            Format.printf "%a@." Mp5_banzai.Config.pp prog.config
        | Error msg ->
            Format.eprintf "%s: %s@." file msg;
            exit 2
      end;
      exit 0

let file_arg =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"Domino source file.")

let pretty_flag =
  Arg.(value & flag & info [ "pretty" ] ~doc:"Parse and pretty-print the program, then exit.")

let pvsm_flag = Arg.(value & flag & info [ "pvsm" ] ~doc:"Dump the PVSM intermediate form.")
let config_flag = Arg.(value & flag & info [ "config" ] ~doc:"Dump the lowered Banzai configuration.")

let mp5_flag =
  Arg.(value & flag & info [ "mp5" ] ~doc:"Dump the MP5-transformed program and resolution plan.")

let stages_arg =
  Arg.(value & opt int 16 & info [ "stages" ] ~docv:"N" ~doc:"Machine stage budget.")

let atoms_arg =
  Arg.(value & opt int 2 & info [ "atoms-per-stage" ] ~docv:"N" ~doc:"Stateful atoms per stage.")

let cmd =
  let doc = "compile Domino programs for MP5 multi-pipelined switches" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on usage errors (an unknown flag, a malformed value, a missing FILE).";
      Cmd.Exit.info 2
        ~doc:
          "on a program that does not compile, or whose MP5 transform ($(b,--mp5)) does not fit \
           the stage budget.";
    ]
  in
  Cmd.v
    (Cmd.info "mp5c" ~doc ~exits)
    Term.(
      const run $ pretty_flag $ pvsm_flag $ config_flag $ mp5_flag $ stages_arg $ atoms_arg
      $ file_arg)

let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> Cmd.Exit.internal_error)
