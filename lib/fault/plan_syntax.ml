type stmt = { line : int; keyword : string; words : string list }

exception Parse_error of string

let fail st msg = raise (Parse_error (Printf.sprintf "line %d: %s" st.line msg))

let is_blank c = c = ' ' || c = '\t'

(* The words of [s.[a..b)], split on spaces and tabs. *)
let rec words s a b =
  if a >= b then []
  else if is_blank s.[a] then words s (a + 1) b
  else begin
    let e = ref a in
    while !e < b && not (is_blank s.[!e]) do incr e done;
    String.sub s a (!e - a) :: words s !e b
  end

(* One pass over the text: a statement ends at ';', '#' or a newline,
   and what follows a '#' up to the newline is skipped.  An empty text
   allocates no statement. *)
let parse text ~init step =
  let n = String.length text in
  let acc = ref init and line = ref 1 and from = ref 0 and comment = ref false in
  let statement upto =
    if not !comment then
      match words text !from upto with
      | [] -> ()
      | keyword :: words -> acc := step !acc { line = !line; keyword; words }
  in
  match
    for i = 0 to n do
      match if i = n then '\n' else text.[i] with
      | '\n' ->
          statement i;
          incr line;
          comment := false;
          from := i + 1
      | ';' ->
          statement i;
          from := i + 1
      | '#' ->
          statement i;
          comment := true
      | _ -> ()
    done
  with
  | () -> Ok !acc
  | exception Parse_error msg -> Error msg

let load ~path parse =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (fun msg -> path ^ ": " ^ msg) (parse text)

type args = { st : stmt; cycles : (int * int) option; kv : (string * string) list }

(* "@C" or "@A..B": the first '.' must start the "..". *)
let cycle_spec st w =
  let spec = String.sub w 1 (String.length w - 1) in
  let a, b =
    match String.index_opt spec '.' with
    | Some i when i + 1 < String.length spec && spec.[i + 1] = '.' ->
        (String.sub spec 0 i, String.sub spec (i + 2) (String.length spec - i - 2))
    | _ -> (spec, spec)
  in
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some a, Some b -> (a, b)
  | _ -> fail st (Printf.sprintf "bad cycle spec %S" w)

let args st =
  List.fold_left
    (fun a w ->
      if w.[0] = '@' then { a with cycles = Some (cycle_spec st w) }
      else
        match String.index_opt w '=' with
        | Some i ->
            let kv = (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1)) in
            { a with kv = kv :: a.kv }
        | None -> fail st (Printf.sprintf "expected key=value, got %S" w))
    { st; cycles = None; kv = [] }
    st.words

let at a =
  match a.cycles with
  | Some (c, c') when c = c' -> c
  | Some _ -> fail a.st "expected a single cycle (@C), got a window"
  | None -> fail a.st "missing cycle spec (@C)"

let span a =
  match a.cycles with
  | Some (from_, until_) when from_ > until_ ->
      fail a.st (Printf.sprintf "empty window @%d..%d" from_ until_)
  | Some w -> w
  | None -> fail a.st "missing cycle spec (@A..B)"

let arg of_string what a name =
  match List.assoc_opt name a.kv with
  | Some v -> (
      match of_string v with
      | Some x -> x
      | None -> fail a.st (Printf.sprintf "argument %s=%S is not %s" name v what))
  | None -> fail a.st (Printf.sprintf "missing argument %s=" name)

let int = arg int_of_string_opt "an integer"
let float = arg float_of_string_opt "a number"

let pp_cycles ppf (from_, until_) =
  if from_ = until_ then Format.fprintf ppf "@%d" from_
  else Format.fprintf ppf "@%d..%d" from_ until_
