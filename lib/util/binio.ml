(* Versioned binary framing for machine snapshots.

   A file is: the magic line (schema id + '\n'), an 8-byte little-endian
   payload length, an 8-byte FNV-1a checksum of the payload, then the
   payload itself.  Values inside the payload are fixed-width 64-bit
   little-endian integers (OCaml ints sign-extend through [Int64] and
   round-trip exactly), single-byte booleans and tags, and
   length-prefixed strings/arrays.  Every reader failure is positioned
   by absolute byte offset in the file, the anchor [dd]/[xxd] can
   actually use on a multi-megabyte snapshot. *)

exception Corrupt of { pos : int; reason : string }

let corrupt_message ~pos ~reason = Printf.sprintf "byte %d: %s" pos reason

(* --- writing ---

   One growable [Bytes] buffer.  Nested frames ({!w_framed}) reserve
   their length fields in place and patch them when the body is done,
   so a fabric snapshot's node frames are written once, straight into
   the fabric's buffer; {!to_string} copies the finished payload out
   exactly once, behind its header. *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer () = { buf = Bytes.create 4096; len = 0 }

let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.buf then begin
    let cap = ref (2 * Bytes.length w.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let w_i64 w x =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len x;
  w.len <- w.len + 8

(* Not [w_i64 w (Int64.of_int x)]: across a call the [int64] would be
   boxed, three words per integer written. *)
let w_int w x =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len (Int64.of_int x);
  w.len <- w.len + 8

let w_byte w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let w_bool w v = w_byte w (if v then '\001' else '\000')

let w_tag w t =
  if t < 0 || t > 255 then invalid_arg "Binio.w_tag: tag out of range";
  w_byte w (Char.unsafe_chr t)

let w_raw w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let w_string w s =
  w_int w (String.length s);
  w_raw w s

let w_int_sub w a ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Binio.w_int_sub";
  w_int w len;
  reserve w (8 * len);
  let at = w.len in
  for i = 0 to len - 1 do
    Bytes.set_int64_le w.buf (at + (8 * i)) (Int64.of_int (Array.unsafe_get a (pos + i)))
  done;
  w.len <- at + (8 * len)

let w_int_array w a = w_int_sub w a ~pos:0 ~len:(Array.length a)

let w_opt_int w = function
  | None -> w_bool w false
  | Some v ->
      w_bool w true;
      w_int w v

(* FNV-1a-64 over [s.[off] .. s.[off + len - 1]].  Every checkpoint leg
   hashes each byte twice per frame level (encode and verify), so this
   is a plain loop over a local [Int64] ref, which the native compiler
   keeps unboxed: no closure, no allocation per byte. *)
let checksum_sub s off len =
  let h = ref 0xCBF29CE484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001B3L
  done;
  !h

let checksum s = checksum_sub s 0 (String.length s)

let to_string ~magic w =
  let hdr = String.length magic + 17 in
  let out = Bytes.create (hdr + w.len) in
  Bytes.blit_string magic 0 out 0 (String.length magic);
  Bytes.set out (String.length magic) '\n';
  Bytes.set_int64_le out (hdr - 16) (Int64.of_int w.len);
  Bytes.set_int64_le out (hdr - 8) (checksum_sub (Bytes.unsafe_to_string w.buf) 0 w.len);
  Bytes.blit w.buf 0 out hdr w.len;
  Bytes.unsafe_to_string out

(* Byte-identical to [w_string w (to_string ~magic inner)] for a writer
   [inner] that received what [body] writes: the string length prefix
   and the frame's own length and checksum are reserved, then patched
   once the body has been written in place. *)
let w_framed w ~magic body =
  let prefix_at = w.len in
  w_int w 0;
  w_raw w magic;
  w_byte w '\n';
  let len_at = w.len in
  w_i64 w 0L;
  w_i64 w 0L;
  let body_at = w.len in
  body w;
  let n = w.len - body_at in
  Bytes.set_int64_le w.buf prefix_at (Int64.of_int (w.len - prefix_at - 8));
  Bytes.set_int64_le w.buf len_at (Int64.of_int n);
  Bytes.set_int64_le w.buf (len_at + 8)
    (checksum_sub (Bytes.unsafe_to_string w.buf) body_at n)

(* --- durable file writes and snapshot rotation ---

   A checkpoint that claims success must survive a kill -9 issued the
   next instant.  Plain [output_string; close; rename] does not give
   that: the data can still sit in the page cache when the rename
   lands, and a crash then leaves a zero-length or torn "latest"
   snapshot exactly where the recovery logic will look first.  The
   durable write path is therefore: write the tmp file, [fsync] it,
   atomically rename it over the destination, then [fsync] the
   directory so the rename itself is on disk. *)

let fsync_dir dir =
  (* Directory fds are not openable on every filesystem; a failed
     directory sync downgrades durability, never correctness. *)
  match Unix.openfile (if dir = "" then "." else dir) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_file_durable ?(fsync = true) ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length data in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write_substring fd data !written (len - !written)
      done;
      if fsync then Unix.fsync fd);
  Sys.rename tmp path;
  if fsync then fsync_dir (Filename.dirname path)

let slot_path ~path i = if i = 0 then path else Printf.sprintf "%s.%d" path i

let slot_paths ~path ~keep = List.init (max 1 keep) (fun i -> slot_path ~path i)

(* Shift [path -> path.1 -> ... -> path.(keep-1)], dropping the oldest.
   Every step is a rename, so at any instant each surviving slot holds a
   complete snapshot from some checkpoint — a crash mid-rotation can
   lose depth, never integrity. *)
let rotate ~path ~keep =
  let keep = max 1 keep in
  for i = keep - 2 downto 0 do
    let src = slot_path ~path i in
    if Sys.file_exists src then Sys.rename src (slot_path ~path (i + 1))
  done

let write_rotated ?fsync ~path ~keep data =
  rotate ~path ~keep;
  write_file_durable ?fsync ~path data

let remove_slots ~path ~keep =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (slot_paths ~path ~keep:(max 1 keep));
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp

let to_file ~magic ~path (b : writer) = write_file_durable ~path (to_string ~magic b)

(* --- reading ---

   A reader is a window [\[pos, limit)] on the caller's string: the
   whole file for {!of_string}, one nested frame for {!r_framed}.  No
   payload is copied, positions are absolute file offsets, and every
   bounds and plausibility check runs against the window's own
   [limit], so a damaged frame can never read into its neighbour. *)

type reader = { data : string; mutable pos : int; limit : int }

let fail r reason = raise (Corrupt { pos = r.pos; reason })

let need r n =
  if n > r.limit - r.pos then
    raise (Corrupt { pos = r.limit; reason = "unexpected end of snapshot" })

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* Not [Int64.to_int (r_i64 r)], for the reason given at [w_int]. *)
let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_index r ~bound ~what =
  let at = r.pos in
  let v = r_int r in
  if v < 0 || v >= bound then
    raise
      (Corrupt { pos = at; reason = Printf.sprintf "%s %d out of range [0, %d)" what v bound });
  v

let r_bool r =
  need r 1;
  match String.unsafe_get r.data r.pos with
  | '\000' ->
      r.pos <- r.pos + 1;
      false
  | '\001' ->
      r.pos <- r.pos + 1;
      true
  | c -> fail r (Printf.sprintf "bad boolean byte 0x%02x" (Char.code c))

let r_tag r ~expect ~what =
  need r 1;
  let t = Char.code (String.unsafe_get r.data r.pos) in
  if t <> expect then
    fail r (Printf.sprintf "bad section tag %d for %s (expected %d)" t what expect);
  r.pos <- r.pos + 1

let r_len r ~what =
  let n = r_int r in
  if n < 0 || n > r.limit - r.pos then fail r (Printf.sprintf "implausible %s length %d" what n);
  n

let r_string r =
  let n = r_len r ~what:"string" in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_count r ~min_bytes ~what =
  let n = r_int r in
  if n < 0 || n > (r.limit - r.pos) / min_bytes then
    fail r (Printf.sprintf "implausible %s %d" what n);
  n

let r_array_length r = r_count r ~min_bytes:8 ~what:"array length"

(* The caller has checked [8 * len] bytes remain. *)
let read_ints r dst pos len =
  let at = r.pos in
  for i = 0 to len - 1 do
    Array.unsafe_set dst (pos + i) (Int64.to_int (String.get_int64_le r.data (at + (8 * i))))
  done;
  r.pos <- at + (8 * len)

let r_int_array r =
  let n = r_array_length r in
  let a = Array.make n 0 in
  read_ints r a 0 n;
  a

let r_int_sub_into r dst ~pos ~len ~mismatch =
  if pos < 0 || len < 0 || pos > Array.length dst - len then
    invalid_arg "Binio.r_int_sub_into";
  if r_array_length r <> len then failwith mismatch;
  read_ints r dst pos len

let r_int_array_into r dst ~mismatch =
  r_int_sub_into r dst ~pos:0 ~len:(Array.length dst) ~mismatch

let r_opt_int r = if r_bool r then Some (r_int r) else None

let remaining r = r.limit - r.pos
let position r = r.pos

let matches_at s at magic =
  let n = String.length magic in
  let rec go i =
    i = n || (String.unsafe_get s (at + i) = String.unsafe_get magic i && go (i + 1))
  in
  at + n <= String.length s && go 0

(* Validate the frame occupying [\[start, limit)] of [s]: magic line,
   payload length, checksum, no trailing bytes.  Returns a reader
   windowed on the payload, or the positioned error.  [nested] frames
   sit inside a parent's length prefix, so a payload length that
   overruns it is a forged length field (positioned there), not a
   truncated file. *)
let frame ~magic ~nested s ~start ~limit =
  let err pos reason = Error (pos, reason) in
  let mlen = String.length magic in
  if limit - start < mlen + 1 || not (matches_at s start magic) || s.[start + mlen] <> '\n'
  then begin
    (* Distinguish a recognisable-but-wrong version from garbage. *)
    let line_end =
      match String.index_from_opt s start '\n' with
      | Some i when i < limit -> Some (i - start)
      | _ -> None
    in
    match line_end with
    | Some i
      when i <= 32
           && limit - start > 8
           && String.sub s start (min 8 i) = String.sub magic 0 (min 8 mlen) ->
        err start (Printf.sprintf "snapshot version %S, expected %S" (String.sub s start i) magic)
    | _ -> err start (Printf.sprintf "bad magic, expected %S" magic)
  end
  else begin
    let hdr = start + mlen + 1 in
    if limit - hdr < 16 then err limit "unexpected end of snapshot"
    else begin
      let len = Int64.to_int (String.get_int64_le s hdr) in
      let sum = String.get_int64_le s (hdr + 8) in
      let body_at = hdr + 16 in
      if len < 0 || limit - body_at < len then
        if nested then err hdr (Printf.sprintf "frame length %d overruns its enclosing frame" len)
        else err limit "truncated payload"
      else if limit - body_at > len then err (body_at + len) "trailing bytes after payload"
      else if checksum_sub s body_at len <> sum then
        err hdr "checksum mismatch (corrupt snapshot)"
      else Ok { data = s; pos = body_at; limit }
    end
  end

let of_string ~magic s =
  match frame ~magic ~nested:false s ~start:0 ~limit:(String.length s) with
  | Ok r -> Ok r
  | Error (pos, reason) -> Error (corrupt_message ~pos ~reason)

let r_framed r ~magic =
  let n = r_len r ~what:"frame" in
  let start = r.pos in
  r.pos <- start + n;
  match frame ~magic ~nested:true r.data ~start ~limit:(start + n) with
  | Ok sub -> sub
  | Error (pos, reason) -> raise (Corrupt { pos; reason })

let of_file ~magic ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let s = really_input_string ic (in_channel_length ic) in
          match of_string ~magic s with
          | Ok r -> Ok r
          | Error e -> Error (Printf.sprintf "%s: %s" path e))

(* Walk the rotation chain newest-first and return the first slot whose
   framing (magic, length, checksum) validates.  A torn or zero-length
   newest snapshot — the signature of a crash mid-checkpoint — falls
   back to the previous one instead of stranding the run. *)
let load_latest_valid ~magic ~path ~keep =
  let read p =
    match open_in_bin p with
    | exception Sys_error e -> Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  in
  let rec go errs = function
    | [] ->
        Error
          (match List.rev errs with
          | [] -> "no snapshot slots to try"
          | errs -> String.concat "; " errs)
    | p :: rest -> (
        if not (Sys.file_exists p) then go errs rest
        else
          match read p with
          | Error e -> go (e :: errs) rest
          | Ok contents -> (
              match of_string ~magic contents with
              | Ok _ -> Ok (p, contents)
              | Error e -> go (Printf.sprintf "%s: %s" p e :: errs) rest))
  in
  go [] (slot_paths ~path ~keep)
