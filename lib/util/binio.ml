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

(* --- checksums ---

   FNV-1a-64 is a serial chain: each byte is xored in and multiplied by
   the prime, so one chain runs at the multiply latency whatever the
   loop looks like.  Two independent chains can overlap, and a
   checkpoint always has two: a frame's own sum and the chain of the
   payload that contains the frame.  [fnv2] advances both in one loop
   that loads one 8-byte word per lane per iteration and steps each lane
   over its eight bytes.  On a 2-vCPU x86-64 host it hashes 2 x 300 KB
   in about 0.5 ms, where one chain takes 0.85 ms over 600 KB and a
   two-chain loop loading one byte per step 0.7 ms.  The hashes are
   still plain FNV-1a-64 over the same bytes in the same order. *)

let fnv_basis = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* The two chains [fnv2] advances; its result lands here. *)
type lanes = { mutable ha : int64; mutable hb : int64 }

(* One FNV-1a step, over byte [shift / 8] of little-endian word [w]. *)
let[@inline] step h w shift =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical w shift) 0xFFL)) fnv_prime

(* The eight steps over the bytes of [w], in order. *)
let[@inline] word h w =
  step (step (step (step (step (step (step (step h w 0) w 8) w 16) w 24) w 32) w 40) w 48) w 56

(* One lane over [s.[off] .. s.[off + len - 1]], from [h]. *)
let fnv1 h s off len =
  let h = ref h in
  let i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    h := word !h (String.get_int64_le s !i);
    i := !i + 8
  done;
  for j = words_end to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s j)))) fnv_prime
  done;
  !h

(* Lane A over [s.[ao] .. s.[ao + al - 1]] from [l.ha], lane B over
   [s.[bo] .. s.[bo + bl - 1]] from [l.hb], results back in [l].  The
   lanes step together over their common word count; each then finishes
   alone. *)
let fnv2 l s ~a_off:ao ~a_len:al ~b_off:bo ~b_len:bl =
  if ao < 0 || al < 0 || ao > String.length s - al || bo < 0 || bl < 0
     || bo > String.length s - bl
  then invalid_arg "Binio.fnv2";
  let a = ref l.ha and b = ref l.hb in
  let common = min al bl land lnot 7 in
  let i = ref 0 in
  while !i < common do
    (* the two chains' steps alternate, so their multiplies overlap *)
    let wa = String.get_int64_le s (ao + !i) and wb = String.get_int64_le s (bo + !i) in
    a := step !a wa 0;
    b := step !b wb 0;
    a := step !a wa 8;
    b := step !b wb 8;
    a := step !a wa 16;
    b := step !b wb 16;
    a := step !a wa 24;
    b := step !b wb 24;
    a := step !a wa 32;
    b := step !b wb 32;
    a := step !a wa 40;
    b := step !b wb 40;
    a := step !a wa 48;
    b := step !b wb 48;
    a := step !a wa 56;
    b := step !b wb 56;
    i := !i + 8
  done;
  l.ha <- fnv1 !a s (ao + common) (al - common);
  l.hb <- fnv1 !b s (bo + common) (bl - common)

let checksum s = fnv1 fnv_basis s 0 (String.length s)

(* --- writing ---

   A snapshot is written twice.  The sizing pass runs the encoder over a
   small scratch buffer that wraps around, counting bytes and keeping
   none; the writing pass runs it again straight into the returned
   string, allocated at its exact size with the header in front.  An
   encode therefore allocates the snapshot and nothing else, and
   nothing outlives it.  Nested frames ({!w_framed}) are written in
   place: their length fields are patched when the body is done, and
   their checksums are deferred to {!to_string}, which seals every frame
   in the same walk that hashes the payload. *)

type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
  sizing : bool;
  mutable dropped : int;  (* sizing: bytes counted and no longer in [buf] *)
  (* Deferred frame checksums, in the order the frames closed (a nested
     frame closes before the frame around it): per frame its checksum
     slot, its body length (the body starts right after the slot) and
     the slot of its outermost enclosing frame, itself when it is
     outermost.  The sizing pass only counts them. *)
  mutable frames : int array;
  mutable n_frames : int;
  mutable top : int;  (* slot of the outermost open frame; -1 outside frames *)
}

let scratch = Domain.DLS.new_key (fun () -> Bytes.create 4096)

(* Room for [n <= 8] more bytes.  The sizing pass wraps its scratch;
   the writing pass never grows, since the sizing pass sized it. *)
let reserve w n =
  if w.len + n > Bytes.length w.buf then
    if w.sizing then begin
      w.dropped <- w.dropped + w.len;
      w.len <- 0
    end
    else invalid_arg "Binio.to_string: the encoder wrote more than when it was sized"

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

(* Bulk writes: counted, not copied, when sizing. *)
let skip w n = w.dropped <- w.dropped + n

let room w n =
  if w.len + n > Bytes.length w.buf then
    invalid_arg "Binio.to_string: the encoder wrote more than when it was sized"

let w_raw w s =
  let n = String.length s in
  if w.sizing then skip w n
  else begin
    room w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n
  end

let w_string w s =
  w_int w (String.length s);
  w_raw w s

let w_int_sub w a ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Binio.w_int_sub";
  w_int w len;
  if w.sizing then skip w (8 * len)
  else begin
    room w (8 * len);
    let at = w.len in
    for i = 0 to len - 1 do
      Bytes.set_int64_le w.buf (at + (8 * i)) (Int64.of_int (Array.unsafe_get a (pos + i)))
    done;
    w.len <- at + (8 * len)
  end

let w_int_array w a = w_int_sub w a ~pos:0 ~len:(Array.length a)

(* Fill every deferred frame checksum and return the checksum of the
   payload [w.buf.[from] ..].  Frames are sealed in the order they
   closed, so each body is final when it is hashed.  Lane B hashes
   frame [f]'s body while lane A advances the payload chain up to the
   checksum slot of [f]'s outermost frame: every slot before that one
   is already sealed, and lane A never reaches a slot still unwritten. *)
let seal w ~from =
  let s = Bytes.unsafe_to_string w.buf in
  let l = { ha = fnv_basis; hb = fnv_basis } in
  let at = ref from in
  for f = 0 to w.n_frames - 1 do
    let slot = w.frames.(3 * f) and n = w.frames.((3 * f) + 1) and stop = w.frames.((3 * f) + 2) in
    l.hb <- fnv_basis;
    fnv2 l s ~a_off:!at ~a_len:(stop - !at) ~b_off:(slot + 8) ~b_len:n;
    at := stop;
    Bytes.set_int64_le w.buf slot l.hb
  done;
  fnv1 l.ha s !at (w.len - !at)

let to_string ~magic body =
  let sizer =
    {
      buf = Domain.DLS.get scratch;
      len = 0;
      sizing = true;
      dropped = 0;
      frames = [||];
      n_frames = 0;
      top = -1;
    }
  in
  body sizer;
  let hdr = String.length magic + 17 in
  let n = sizer.dropped + sizer.len in
  let out = Bytes.create (hdr + n) in
  Bytes.blit_string magic 0 out 0 (String.length magic);
  Bytes.set out (String.length magic) '\n';
  Bytes.set_int64_le out (hdr - 16) (Int64.of_int n);
  let w =
    {
      buf = out;
      len = hdr;
      sizing = false;
      dropped = 0;
      frames = Array.make (3 * sizer.n_frames) 0;
      n_frames = 0;
      top = -1;
    }
  in
  body w;
  if w.len <> hdr + n || w.n_frames <> sizer.n_frames then
    invalid_arg "Binio.to_string: the encoder wrote differently when it was sized";
  Bytes.set_int64_le out (hdr - 8) (seal w ~from:hdr);
  Bytes.unsafe_to_string out

(* Byte-identical to [w_string w (to_string ~magic body)]: the string
   length prefix and the frame's own length are reserved, then patched
   once the body has been written in place; the checksum is sealed by
   {!to_string}. *)
let w_framed w ~magic body =
  let prefix_at = w.len in
  w_int w 0;
  w_raw w magic;
  w_byte w '\n';
  let len_at = w.len in
  w_i64 w 0L;
  w_i64 w 0L;
  if w.sizing then begin
    body w;
    w.n_frames <- w.n_frames + 1
  end
  else begin
    let slot = len_at + 8 in
    let outermost = w.top < 0 in
    if outermost then w.top <- slot;
    let stop = w.top in
    let body_at = w.len in
    body w;
    if outermost then w.top <- -1;
    let n = w.len - body_at in
    Bytes.set_int64_le w.buf prefix_at (Int64.of_int (w.len - prefix_at - 8));
    Bytes.set_int64_le w.buf len_at (Int64.of_int n);
    let i = 3 * w.n_frames in
    w.frames.(i) <- slot;
    w.frames.(i + 1) <- n;
    w.frames.(i + 2) <- stop;
    w.n_frames <- w.n_frames + 1
  end

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

(* --- reading ---

   A reader is a window [\[pos, limit)] on the caller's string: the
   whole file for {!of_string}, one nested frame for {!r_framed}.  No
   payload is copied, positions are absolute file offsets, and every
   bounds and plausibility check runs against the window's own
   [limit], so a damaged frame can never read into its neighbour. *)

(* A deferred payload check ({!of_string_deferred}): the payload chain
   has hashed the payload up to offset [at] into [h], and must reach
   [sum] at the window's end; a mismatch is reported at [hdr], the
   frame's length field. *)
type deferred = { mutable at : int; mutable h : int64; sum : int64; hdr : int }

type reader = { data : string; mutable pos : int; limit : int; outer : deferred option }

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

(* The caller has checked [8 * len] bytes remain. *)
let read_ints r dst pos len =
  let at = r.pos in
  for i = 0 to len - 1 do
    Array.unsafe_set dst (pos + i) (Int64.to_int (String.get_int64_le r.data (at + (8 * i))))
  done;
  r.pos <- at + (8 * len)

let r_int_array r =
  let n = r_count r ~min_bytes:8 ~what:"array length" in
  let a = Array.make n 0 in
  read_ints r a 0 n;
  a

let remaining r = r.limit - r.pos
let position r = r.pos

let matches_at s at magic =
  let n = String.length magic in
  let rec go i =
    i = n || (String.unsafe_get s (at + i) = String.unsafe_get magic i && go (i + 1))
  in
  at + n <= String.length s && go 0

(* Validate the framing of the frame occupying [\[start, limit)] of [s]:
   magic line, payload length, no trailing bytes.  Returns the offset of
   its length field (the checksum follows, then the payload), or the
   positioned error; the checksum is the caller's.  [nested] frames sit
   inside a parent's length prefix, so a payload length that overruns
   it is a forged length field (positioned there), not a truncated
   file. *)
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
      let body_at = hdr + 16 in
      if len < 0 || limit - body_at < len then
        if nested then err hdr (Printf.sprintf "frame length %d overruns its enclosing frame" len)
        else err limit "truncated payload"
      else if limit - body_at > len then err (body_at + len) "trailing bytes after payload"
      else Ok hdr
    end
  end

let checksum_mismatch = "checksum mismatch (corrupt snapshot)"
let stored_sum s hdr = String.get_int64_le s (hdr + 8)

let of_string_deferred ~magic s =
  let limit = String.length s in
  match frame ~magic ~nested:false s ~start:0 ~limit with
  | Error (pos, reason) -> Error (corrupt_message ~pos ~reason)
  | Ok hdr ->
      let outer = { at = hdr + 16; h = fnv_basis; sum = stored_sum s hdr; hdr } in
      Ok { data = s; pos = hdr + 16; limit; outer = Some outer }

let verify r =
  match r.outer with
  | None -> Ok ()
  | Some o ->
      o.h <- fnv1 o.h r.data o.at (r.limit - o.at);
      o.at <- r.limit;
      if o.h = o.sum then Ok () else Error (corrupt_message ~pos:o.hdr ~reason:checksum_mismatch)

let of_string ~magic s =
  Result.bind (of_string_deferred ~magic s) (fun r ->
      Result.map (fun () -> { r with outer = None }) (verify r))

(* A frame's own check.  Under a deferred payload check the payload
   chain advances to the frame's end in the same loop (lane A) that
   hashes the frame's body (lane B): the payload costs no pass of its
   own. *)
let r_framed r ~magic =
  let n = r_len r ~what:"frame" in
  let start = r.pos in
  let limit = start + n in
  r.pos <- limit;
  match frame ~magic ~nested:true r.data ~start ~limit with
  | Error (pos, reason) -> raise (Corrupt { pos; reason })
  | Ok hdr ->
      let body_at = hdr + 16 in
      let sum =
        match r.outer with
        | None -> fnv1 fnv_basis r.data body_at (limit - body_at)
        | Some o ->
            let l = { ha = o.h; hb = fnv_basis } in
            fnv2 l r.data ~a_off:o.at ~a_len:(limit - o.at) ~b_off:body_at ~b_len:(limit - body_at);
            o.at <- limit;
            o.h <- l.ha;
            l.hb
      in
      if sum <> stored_sum r.data hdr then raise (Corrupt { pos = hdr; reason = checksum_mismatch });
      { data = r.data; pos = body_at; limit; outer = None }

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
