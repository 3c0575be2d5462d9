module Machine = Mp5_banzai.Machine

let to_string trace =
  let buf = Buffer.create (Array.length trace * 16) in
  Buffer.add_string buf "# time port fields...\n";
  Array.iter
    (fun (p : Machine.input) ->
      Buffer.add_string buf (string_of_int p.Machine.time);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int p.Machine.port);
      Array.iter
        (fun f ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int f))
        p.Machine.headers;
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

(* --- line scanner ---

   [scan] reads one line, [s.[start .. stop-1]], into a reusable int
   buffer.  [tokens] is the grammar of the interface comment, applied to
   a trimmed line.  The fast path reads plain decimals (an optional [-]
   and 1 to 18 digits, which cannot overflow) in place; a line with any
   other token goes through [tokens] whole, so [int_of_string] alone
   decides everything else. *)

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "") |> List.map int_of_string

type scanner = { mutable buf : int array; mutable len : int }

let scanner () = { buf = Array.make 16 0; len = 0 }

let push sc v =
  if sc.len = Array.length sc.buf then begin
    let b = Array.make (2 * sc.len) 0 in
    Array.blit sc.buf 0 b 0 sc.len;
    sc.buf <- b
  end;
  Array.unsafe_set sc.buf sc.len v;
  sc.len <- sc.len + 1

(* [scan]'s verdicts besides a token count. *)
let blank = -1
let not_int = -2

let is_trim_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'

(* Plain decimals from [i] to [b] into [sc]; false at the first token
   that is anything else. *)
let scan_plain sc s i b =
  let i = ref i and ok = ref true in
  while !ok && !i < b do
    if String.unsafe_get s !i = ' ' then incr i
    else begin
      let neg = String.unsafe_get s !i = '-' in
      if neg then incr i;
      let d0 = !i and v = ref 0 in
      while !i < b && is_digit (String.unsafe_get s !i) do
        v := (10 * !v) + (Char.code (String.unsafe_get s !i) - 48);
        incr i
      done;
      let digits = !i - d0 in
      if digits = 0 || digits > 18 || (!i < b && String.unsafe_get s !i <> ' ') then ok := false
      else push sc (if neg then - !v else !v)
    end
  done;
  !ok

let scan sc s start stop =
  let a = ref start and b = ref stop in
  while !a < !b && is_trim_space (String.unsafe_get s !a) do incr a done;
  while !b > !a && is_trim_space (String.unsafe_get s (!b - 1)) do decr b done;
  if !a = !b || String.unsafe_get s !a = '#' then blank
  else begin
    sc.len <- 0;
    if scan_plain sc s !a !b then sc.len
    else begin
      sc.len <- 0;
      match tokens (String.sub s !a (!b - !a)) with
      | exception Failure _ -> not_int
      | vs ->
          List.iter (push sc) vs;
          sc.len
    end
  end

exception Bad_line of string

(* The header count of a scanned, non-blank line, whose time, port and
   headers are then [sc.buf.(0)], [sc.buf.(1)] and [sc.buf.(2 ..)];
   [arity] latches the first packet's field count.
   @raise Bad_line with the unpositioned reason. *)
let fields_of arity n =
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_line msg)) fmt in
  if n = not_int then bad "not an integer";
  if n < 2 then bad "need at least time and port";
  let fields = n - 2 in
  if !arity = -1 then arity := fields;
  if fields <> !arity then bad "%d fields, expected %d (truncated line?)" fields !arity;
  fields

let packet sc arity n =
  let fields = fields_of arity n in
  { Machine.time = sc.buf.(0); port = sc.buf.(1); headers = Array.sub sc.buf 2 fields }

(* The packet count of [s] if every line is well formed: its lines that
   are not blank after trimming and do not start with [#], the lines
   [scan] answers [blank] for. *)
let count_packets s =
  let len = String.length s and count = ref 0 and i = ref 0 in
  while !i < len do
    while !i < len && String.unsafe_get s !i <> '\n' && is_trim_space (String.unsafe_get s !i) do
      incr i
    done;
    if !i < len && String.unsafe_get s !i <> '\n' && String.unsafe_get s !i <> '#' then incr count;
    while !i < len && String.unsafe_get s !i <> '\n' do incr i done;
    incr i
  done;
  !count

let no_packet = { Machine.time = 0; port = 0; headers = [||] }

let of_string s =
  let len = String.length s in
  let sc = scanner () in
  (* Sized by a first pass, so each packet goes straight to its slot:
     every counted line either fills one or stops the parse. *)
  let packets = Array.make (count_packets s) no_packet in
  let n = ref 0 in
  let arity = ref (-1) in
  let error = ref None in
  let pos = ref 0 in
  let lineno = ref 0 in
  (* Manual line scan so errors can be positioned by byte offset — the
     anchor a binary-searching eye (or [dd]) can actually use on a
     multi-megabyte capture, where line numbers alone are no help. *)
  while Option.is_none !error && !pos < len do
    incr lineno;
    let start = !pos in
    let nl = ref start in
    while !nl < len && String.unsafe_get s !nl <> '\n' do incr nl done;
    pos := !nl + 1;
    let k = scan sc s start !nl in
    if k <> blank then
      match packet sc arity k with
      | p ->
          packets.(!n) <- p;
          incr n
      | exception Bad_line msg ->
          error := Some (Printf.sprintf "byte %d (line %d): %s" start !lineno msg)
  done;
  match !error with
  | Some e -> Error e
  | None -> if !n = 0 then Error "no packets in trace" else Ok packets

(* Streaming reader: same grammar, scanner and error shape as
   [of_string], but one line in memory at a time, each packet written
   from the scanner straight into the source's buffer.  Errors surface as
   [Packet_source.Error] mid-stream (the fill happens long after the
   open), positioned exactly like the batch reader's.  Arrival times must
   be nondecreasing — the batch path tolerates disorder because the whole
   trace is visible, but the simulator's idle fast-forward trusts the
   buffered packet to bound the next arrival, which only a sorted stream
   can promise.  [close] runs once, at the end of the stream. *)
let channel_source ?path ~close ic =
  let prefix = match path with None -> "" | Some p -> p ^ ": " in
  let sc = scanner () in
  let pos = ref 0 in
  let lineno = ref 0 in
  let arity = ref (-1) in
  let last_time = ref min_int in
  let fail at fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Packet_source.Error
             (Printf.sprintf "%sbyte %d (line %d): %s" prefix at !lineno msg)))
      fmt
  in
  let rec fill src =
    match input_line ic with
    | exception End_of_file ->
        close ();
        false
    | raw -> (
        incr lineno;
        let start = !pos in
        pos := !pos + String.length raw + 1;
        let n = scan sc raw 0 (String.length raw) in
        if n = blank then fill src
        else
          match fields_of arity n with
          | exception Bad_line msg -> fail start "%s" msg
          | fields ->
              let time = sc.buf.(0) in
              if time < !last_time then
                fail start
                  "arrival time %d before previous packet's %d (streamed traces must be time-sorted)"
                  time !last_time;
              last_time := time;
              Array.blit sc.buf 2 (Packet_source.set src ~time ~port:sc.buf.(1) ~n:fields) 0 fields;
              true)
  in
  Packet_source.of_fill fill

let stream_channel ?path ic = channel_source ?path ~close:ignore ic

(* Closed at the end of the stream by the fill itself: a source has no
   explicit close, and the channel must outlive this function. *)
let stream ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> Ok (channel_source ~path ~close:(fun () -> close_in_noerr ic) ic)

let save ~path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string trace))

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match of_string (really_input_string ic (in_channel_length ic)) with
          | Ok trace -> Ok trace
          | Error e -> Error (Printf.sprintf "%s: %s" path e))
