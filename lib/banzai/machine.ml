module Int_vec = Mp5_util.Int_vec

type input = { time : int; port : int; headers : int array }

let sort_trace trace =
  let t = Array.copy trace in
  let cmp a b =
    match compare a.time b.time with 0 -> compare a.port b.port | c -> c
  in
  (* Array.sort is not stable, so decorate with original position to keep
     equal-key packets in generation order. *)
  let decorated = Array.mapi (fun i x -> (i, x)) t in
  Array.sort
    (fun (i, a) (j, b) -> match cmp a b with 0 -> compare i j | c -> c)
    decorated;
  Array.map snd decorated

type result = {
  store : Store.t;
  headers_out : int array array;
  access_seqs : (int * int, int list) Hashtbl.t;
}

(* Top-level recursions over a stage's lists: [List.iter] closures would
   capture the packet's fields and allocate once per stage. *)
let rec exec_stateless tables fields = function
  | [] -> ()
  | op :: tl ->
      Atom.exec_stateless ~tables ~fields op;
      exec_stateless tables fields tl

let rec exec_atoms tables store fields on_access = function
  | [] -> ()
  | (atom : Atom.stateful) :: tl ->
      let reg_array = Store.array store ~reg:atom.reg in
      let cell = Atom.exec_cell ~tables ~fields ~reg_array atom in
      if cell >= 0 then on_access ~reg:atom.reg ~cell;
      exec_atoms tables store fields on_access tl

let run_packet (config : Config.t) store ~fields ~on_access =
  let tables = config.Config.tables and stages = config.Config.stages in
  for s = 0 to Array.length stages - 1 do
    let stage = stages.(s) in
    exec_stateless tables fields stage.Config.stateless;
    exec_atoms tables store fields on_access stage.Config.atoms
  done

let access_table ~size keys log =
  let lists = Array.make (Int_vec.length keys) [] in
  let i = ref (Int_vec.length log - 2) in
  while !i >= 0 do
    let j = Int_vec.get log !i in
    lists.(j) <- Int_vec.get log (!i + 1) :: lists.(j);
    i := !i - 2
  done;
  let tbl = Hashtbl.create size in
  Array.iteri
    (fun j ids ->
      let key = Int_vec.get keys j in
      Hashtbl.replace tbl (key lsr 32, key land 0xFFFF_FFFF) ids)
    lists;
  tbl

let run (config : Config.t) trace =
  let store = Store.create config in
  let n = Array.length trace in
  let headers_out = Array.make n [||] in
  (* Per-cell bookkeeping: [slot] maps the packed key
     [(reg lsl 32) lor cell] (a cell index is an in-memory array index,
     so below 2^32) to a dense slot numbered in first-access order,
     [keys] holds the keys by slot, and [log] every access as a
     (slot, packet id) pair, reserved for the most a trace can make:
     each atom at most once per packet. *)
  let slot = Mp5_util.Int_table.create () and keys = Int_vec.create () in
  let log = Int_vec.create () in
  let atoms =
    Array.fold_left (fun acc st -> acc + List.length st.Config.atoms) 0 config.Config.stages
  in
  Int_vec.reserve log (2 * atoms * n);
  (* One access callback for the whole run, reading the current packet
     from this ref. *)
  let pkt = ref 0 in
  let on_access ~reg ~cell =
    let key = (reg lsl 32) lor cell in
    let i =
      match Mp5_util.Int_table.find slot key with
      | i -> i
      | exception Not_found ->
          let i = Int_vec.length keys in
          Int_vec.push keys key;
          Mp5_util.Int_table.replace slot key i;
          i
    in
    Int_vec.push log i;
    Int_vec.push log !pkt
  in
  let n_user = config.Config.n_user_fields in
  let fields = Array.make (Array.length config.Config.fields) 0 in
  for pkt_id = 0 to n - 1 do
    let headers = trace.(pkt_id).headers in
    Array.fill fields 0 (Array.length fields) 0;
    Array.blit headers 0 fields 0 (min (Array.length headers) n_user);
    pkt := pkt_id;
    run_packet config store ~fields ~on_access;
    headers_out.(pkt_id) <- Array.sub fields 0 n_user
  done;
  (* Filled in first-access order, into a table of the size a table
     updated access by access would start at: consumers that iterate it
     see the cells in that order. *)
  { store; headers_out; access_seqs = access_table ~size:64 keys log }
