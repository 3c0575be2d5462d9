(* One function per snapshot section, for writing and for reading (see
   codec.mli).  Each field is one branch on the mode and one [Binio]
   access; a reader made inside [walk] also notes the field. *)

type rule = Any | Range | Count | Xref | Frame
type field = { pos : int; width : int; rule : rule; what : string }
type mode = W of Binio.writer | R of Binio.reader
type t = { mutable mode : mode; log : field list ref option }

(* The field list a [walk] collects into, picked up by [reader]. *)
let sink : field list ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let reader r = { mode = R r; log = Domain.DLS.get sink }
let encode ~magic f = Binio.to_string ~magic (fun w -> f { mode = W w; log = None })
let reading io = match io.mode with R _ -> true | W _ -> false
let position io = match io.mode with R r -> Binio.position r | W _ -> -1
let remaining io = match io.mode with R r -> Binio.remaining r | W _ -> 0
let fail ~at fmt = Printf.ksprintf (fun reason -> raise (Binio.Corrupt { pos = at; reason })) fmt

let note io r width rule what =
  match io.log with
  | None -> ()
  | Some l -> l := { pos = Binio.position r; width; rule; what } :: !l

(* A field one [Binio] call writes or reads whole. *)
let field io width rule what write read v =
  match io.mode with
  | W w ->
      write w v;
      v
  | R r ->
      note io r width rule what;
      read r

let tag io t ~what =
  match io.mode with
  | W w -> Binio.w_tag w t
  | R r ->
      note io r 1 Range what;
      Binio.r_tag r ~expect:t ~what

let bool io ~what v = field io 1 Range what Binio.w_bool Binio.r_bool v
let flag io ~what v = if bool io ~what (v <> 0) then 1 else 0
let i64 io ~what v = field io 8 Any what Binio.w_i64 Binio.r_i64 v
let string io ~what s = field io 8 Count what Binio.w_string Binio.r_string s

(* An unchecked int: the caller states its rule, and checks it on a
   reader (a writer writes what it holds). *)
let raw io rule ~what v = field io 8 rule what Binio.w_int Binio.r_int v
let word io ~what v = raw io Any ~what v
let xword io ~what v = raw io Xref ~what v

(* "[0, n)" for an index range, "[lo, hi]" otherwise. *)
let out_of_range ~at what v ~lo ~hi =
  if lo = 0 && hi < max_int then fail ~at "%s %d out of range [0, %d)" what v (hi + 1)
  else fail ~at "%s %d out of range [%d, %d]" what v lo hi

let checked io rule ~lo ~hi ~what v =
  let at = position io in
  let v = raw io rule ~what v in
  if reading io && (v < lo || v > hi) then out_of_range ~at what v ~lo ~hi;
  v

let int io ~lo ~hi ~what v = checked io Range ~lo ~hi ~what v
let nat io ~what v = checked io Range ~lo:0 ~hi:max_int ~what v
let xref io ~lo ~hi ~what v = checked io Xref ~lo ~hi ~what v
let index io ~bound ~what v = checked io Xref ~lo:0 ~hi:(bound - 1) ~what v

let choice io ~n ~what v =
  let at = position io in
  let v = raw io Range ~what v in
  if reading io && (v < 0 || v >= n) then fail ~at "%s %d" what v;
  v

let expect io ~n ~what ~mismatch v =
  let at = position io in
  if raw io Xref ~what v <> n then fail ~at "%s" mismatch

let count io ~min_bytes ~what n =
  match io.mode with
  | W w ->
      Binio.w_int w n;
      n
  | R r ->
      note io r 8 Count what;
      Binio.r_count r ~min_bytes ~what

let fixed io ~n ~mismatch =
  let at = position io in
  if count io ~min_bytes:8 ~what:"array length" n <> n then fail ~at "%s" mismatch

(* Note and check the [len] elements read from [first] into [a.(pos)..]. *)
let elements io rule ~lo ~hi ~what a ~pos ~len ~first =
  (match io.log with
  | None -> ()
  | Some l ->
      for i = 0 to len - 1 do
        l := { pos = first + (8 * i); width = 8; rule; what } :: !l
      done);
  if rule <> Any then
    for i = 0 to len - 1 do
      let v = a.(pos + i) in
      if v < lo || v > hi then out_of_range ~at:(first + (8 * i)) what v ~lo ~hi
    done

let ints_in io rule ~lo ~hi ~what ~mismatch a ~pos ~len =
  match io.mode with
  | W w -> Binio.w_int_sub w a ~pos ~len
  | R r ->
      fixed io ~n:len ~mismatch;
      let first = Binio.position r in
      for i = pos to pos + len - 1 do
        a.(i) <- Binio.r_int r
      done;
      elements io rule ~lo ~hi ~what a ~pos ~len ~first

let ints io ~what ~mismatch a ~pos ~len =
  ints_in io Any ~lo:min_int ~hi:max_int ~what ~mismatch a ~pos ~len

let int_array_in io rule ~lo ~hi ~what a =
  match io.mode with
  | W w ->
      Binio.w_int_array w a;
      a
  | R r ->
      note io r 8 Count what;
      let first = Binio.position r + 8 in
      let a = Binio.r_int_array r in
      elements io rule ~lo ~hi ~what a ~pos:0 ~len:(Array.length a) ~first;
      a

let int_array io ~what a = int_array_in io Any ~lo:min_int ~hi:max_int ~what a

let framed io ~magic f =
  match io.mode with
  | W w -> Binio.w_framed w ~magic (fun _ -> f io)
  | R r ->
      note io r 8 Frame magic;
      io.mode <- R (Binio.r_framed r ~magic);
      f io;
      io.mode <- R r

(* --- the field walk and the forger --- *)

let walk f =
  let fields = ref [] in
  Domain.DLS.set sink (Some fields);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set sink None)
    (fun () ->
      let v = f () in
      (v, List.rev !fields))

let rule_name = function
  | Any -> "any" | Range -> "range" | Count -> "count" | Xref -> "xref" | Frame -> "frame"

(* Reseal the frame whose checksum follows the length field at [len_at]
   ([magic '\n' length:8 sum:8 payload]) over its payload. *)
let seal b len_at =
  let len = Int64.to_int (Bytes.get_int64_le b len_at) in
  Bytes.set_int64_le b (len_at + 8) (Binio.checksum (Bytes.sub_string b (len_at + 16) len))

let forge s fields f v =
  let b = Bytes.of_string s in
  if f.width = 1 then Bytes.set b f.pos (Char.unsafe_chr (v land 0xff))
  else Bytes.set_int64_le b f.pos (Int64.of_int v);
  (* A nested frame is [prefix:8 magic '\n' length:8 sum:8 payload]; the
     frames around [f] are noted before it, the innermost last. *)
  List.iter
    (fun g ->
      let len_at = String.index_from s (g.pos + 8) '\n' + 1 in
      if f.pos >= len_at + 16 && f.pos < len_at + 16 + Int64.to_int (String.get_int64_le s len_at)
      then seal b len_at)
    (List.rev (List.filter (fun g -> g.rule = Frame && g.pos < f.pos) fields));
  seal b (String.index s '\n' + 1);
  Bytes.unsafe_to_string b
