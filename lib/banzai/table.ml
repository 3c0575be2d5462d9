type entry = {
  key : (int * int) list;
  priority : int;
  action : int;
}

type t = {
  tbl_name : string;
  tbl_arity : int;
  tbl_default : int;
  mutable entries : (int * entry) list;  (* insertion id, kept sorted *)
  mutable next_id : int;
}

let create ~name ~arity ?(default_action = 0) () =
  if arity <= 0 then invalid_arg "Table.create: arity must be positive";
  { tbl_name = name; tbl_arity = arity; tbl_default = default_action; entries = []; next_id = 0 }

let arity t = t.tbl_arity
let size t = List.length t.entries

(* Highest priority first; ties by insertion order (oldest first). *)
let order (ida, a) (idb, b) =
  match compare b.priority a.priority with 0 -> compare ida idb | c -> c

let add t entry =
  if List.length entry.key <> t.tbl_arity then
    invalid_arg
      (Printf.sprintf "Table.add: table %s has arity %d, entry has %d keys" t.tbl_name
         t.tbl_arity (List.length entry.key));
  let id = t.next_id in
  t.next_id <- id + 1;
  t.entries <- List.sort order ((id, entry) :: t.entries)

let add_exact t ~key ?(priority = 0) ~action () =
  add t { key = List.map (fun v -> (v, -1)) key; priority; action };
  t

let matches entry keys =
  List.for_all2 (fun (v, m) k -> k land m = v land m) entry.key keys

let lookup t keys =
  if List.length keys <> t.tbl_arity then
    invalid_arg
      (Printf.sprintf "Table.lookup: table %s has arity %d, got %d keys" t.tbl_name t.tbl_arity
         (List.length keys));
  let rec go = function
    | [] -> t.tbl_default
    | (_, e) :: rest -> if matches e keys then e.action else go rest
  in
  go t.entries

(* [lookup] over an array of keys, for the compiled kernels: the walk
   allocates nothing. *)
let rec matches_at key keys i =
  match key with
  | [] -> true
  | (v, m) :: rest -> Array.unsafe_get keys i land m = v land m && matches_at rest keys (i + 1)

let rec first_match default keys = function
  | [] -> default
  | (_, e) :: rest -> if matches_at e.key keys 0 then e.action else first_match default keys rest

let lookup_keys t keys =
  if Array.length keys <> t.tbl_arity then
    invalid_arg
      (Printf.sprintf "Table.lookup: table %s has arity %d, got %d keys" t.tbl_name t.tbl_arity
         (Array.length keys));
  first_match t.tbl_default keys t.entries

let pp ppf t =
  Format.fprintf ppf "table %s/%d (default %d):@," t.tbl_name t.tbl_arity t.tbl_default;
  List.iter
    (fun (_, e) ->
      Format.fprintf ppf "  [%s] prio %d -> action %d@,"
        (String.concat "; " (List.map (fun (v, m) -> Printf.sprintf "%d/%x" v m) e.key))
        e.priority e.action)
    t.entries
