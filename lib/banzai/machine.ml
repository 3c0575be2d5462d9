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

type access = { reg : int; cell : int; order : int }

type result = {
  store : Store.t;
  headers_out : int array array;
  access_seqs : (int * int, int list) Hashtbl.t;
  packet_accesses : access list array;
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
      let r = Atom.exec_stateful ~tables ~fields ~reg_array atom in
      if r.accessed then on_access ~reg:atom.reg ~cell:r.cell;
      exec_atoms tables store fields on_access tl

let run_packet (config : Config.t) store ~fields ~on_access =
  let tables = config.Config.tables and stages = config.Config.stages in
  for s = 0 to Array.length stages - 1 do
    let stage = stages.(s) in
    exec_stateless tables fields stage.Config.stateless;
    exec_atoms tables store fields on_access stage.Config.atoms
  done

let widen_headers (config : Config.t) headers =
  let fields = Array.make (Array.length config.fields) 0 in
  Array.blit headers 0 fields 0 (min (Array.length headers) config.n_user_fields);
  fields

(* Per-cell access bookkeeping for [run].  [slot] maps the packed key
   [(reg lsl 32) lor cell] (a cell index is an in-memory array index, so
   below 2^32) to a dense slot, numbered in first-access order; slot [i]
   holds the cell's key, its packet ids newest first, and its access
   count.  An access's [order] is thus a counter read, not a walk of the
   cell's whole history. *)
type cells = {
  slot : Mp5_util.Int_table.t;
  mutable keys : int array;
  mutable seqs : int list array;
  mutable counts : int array;
  mutable used : int;
}

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_cell c key =
  let i = c.used in
  if i = Array.length c.keys then begin
    c.keys <- grow c.keys 0;
    c.seqs <- grow c.seqs [];
    c.counts <- grow c.counts 0
  end;
  c.keys.(i) <- key;
  c.used <- i + 1;
  Mp5_util.Int_table.replace c.slot key i;
  i

(* Appends [pkt_id] to the cell's sequence; returns its position there. *)
let record c ~reg ~cell pkt_id =
  let key = (reg lsl 32) lor cell in
  let i =
    match Mp5_util.Int_table.find c.slot key with i -> i | exception Not_found -> add_cell c key
  in
  let order = c.counts.(i) in
  c.counts.(i) <- order + 1;
  c.seqs.(i) <- pkt_id :: c.seqs.(i);
  order

let run (config : Config.t) trace =
  let store = Store.create config in
  let n = Array.length trace in
  let headers_out = Array.make n [||] in
  let packet_accesses = Array.make n [] in
  let cells =
    {
      slot = Mp5_util.Int_table.create ();
      keys = Array.make 64 0;
      seqs = Array.make 64 [];
      counts = Array.make 64 0;
      used = 0;
    }
  in
  (* One access callback for the whole run, reading the current packet
     from these refs. *)
  let pkt = ref 0 and accesses = ref [] in
  let on_access ~reg ~cell =
    let order = record cells ~reg ~cell !pkt in
    accesses := { reg; cell; order } :: !accesses
  in
  for pkt_id = 0 to n - 1 do
    let fields = widen_headers config trace.(pkt_id).headers in
    pkt := pkt_id;
    accesses := [];
    run_packet config store ~fields ~on_access;
    packet_accesses.(pkt_id) <- (match !accesses with ([] | [ _ ]) as l -> l | l -> List.rev l);
    headers_out.(pkt_id) <- Array.sub fields 0 config.n_user_fields
  done;
  (* Filled in first-access order, as a table updated access by access
     would be: consumers that iterate it see the cells in that order. *)
  let access_seqs = Hashtbl.create 64 in
  for i = 0 to cells.used - 1 do
    let key = cells.keys.(i) in
    Hashtbl.replace access_seqs (key lsr 32, key land 0xFFFF_FFFF) (List.rev cells.seqs.(i))
  done;
  { store; headers_out; access_seqs; packet_accesses }
