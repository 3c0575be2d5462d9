(** Versioned binary framing for machine snapshots ([mp5-snap/1]).

    The on-disk shape is [magic '\n' length:8 checksum:8 payload]; inside
    the payload every integer is a fixed-width 64-bit little-endian word
    (OCaml ints round-trip exactly through [Int64]), booleans and section
    tags are single bytes, and strings/arrays are length-prefixed.
    Reader failures — truncation, checksum mismatch, a wrong tag — raise
    {!Corrupt} with the absolute byte offset in the file, so the error a
    user sees ("byte N: reason") points at the damage. *)

exception Corrupt of { pos : int; reason : string }

val corrupt_message : pos:int -> reason:string -> string
(** ["byte N: reason"] — the uniform shape of every snapshot error. *)

(** {2 Writing} *)

type writer
(** A single growable byte buffer. *)

val writer : unit -> writer
val w_int : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_bool : writer -> bool -> unit

val w_tag : writer -> int -> unit
(** One byte, [0..255]; pairs with {!r_tag} to catch section misalignment
    early instead of decoding garbage. *)

val w_string : writer -> string -> unit
val w_int_array : writer -> int array -> unit

val w_int_sub : writer -> int array -> pos:int -> len:int -> unit
(** [w_int_sub w a ~pos ~len] writes exactly what
    [w_int_array w (Array.sub a pos len)] writes, without the copy. *)

val w_opt_int : writer -> int option -> unit

val checksum : string -> int64
(** The payload checksum: standard 64-bit FNV-1a (offset basis
    [0xcbf29ce484222325], prime [0x100000001b3]) over every byte. *)

val to_string : magic:string -> writer -> string
(** The complete framed snapshot (magic line + length + checksum +
    payload), copied out of the writer once. *)

val to_file : magic:string -> path:string -> writer -> unit
(** {!write_file_durable} of {!to_string}. *)

(** {3 Nested frames}

    A snapshot can carry whole snapshots of another schema inside its
    payload — a fabric snapshot embeds one machine snapshot per switch.
    A nested frame is a {!w_string}-style length prefix followed by a
    complete frame ([magic '\n' length checksum payload]); it is written
    in place and read through a bounded window, never copied out. *)

val w_framed : writer -> magic:string -> (writer -> unit) -> unit
(** [w_framed w ~magic body] runs [body w] and frames what it wrote in
    place.  The bytes equal [w_string w (to_string ~magic inner)] where
    [inner] received the same writes.  [body] must only append to [w]. *)

(** {2 Durable writes and snapshot rotation}

    The checkpoint write path: a snapshot that claims success must
    survive a [kill -9] issued the next instant, so the tmp file is
    [fsync]ed before the atomic rename, and the directory after it.
    Rotation keeps the last [keep] snapshots as [path], [path.1], ...
    so recovery can fall back past a snapshot torn by a crash that
    raced the write itself. *)

val write_file_durable : ?fsync:bool -> path:string -> string -> unit
(** Write [data] to [path] atomically: tmp file, [fsync] (default
    [true]), rename, directory [fsync].  At no instant does [path] hold
    a partial file. *)

val slot_path : path:string -> int -> string
(** Slot [0] is [path] itself; slot [i > 0] is [path.i]. *)

val slot_paths : path:string -> keep:int -> string list
(** All rotation slots, newest first. *)

val rotate : path:string -> keep:int -> unit
(** Shift [path -> path.1 -> ...], keeping at most [keep] slots.  Every
    step is a rename: a crash mid-rotation loses history depth, never a
    complete snapshot. *)

val write_rotated : ?fsync:bool -> path:string -> keep:int -> string -> unit
(** {!rotate} then {!write_file_durable}: the newest snapshot lands in
    [path], the previous survivors shift down one slot. *)

val remove_slots : path:string -> keep:int -> unit
(** Delete every rotation slot (and a leftover [path.tmp]), for starting
    a supervised run fresh. *)

(** {2 Reading} *)

type reader
(** A window on the caller's string, bounded by the frame it reads.
    Reads never copy the payload; every read, length-plausibility check
    and {!remaining} is relative to the window's own end, and error
    positions are absolute offsets in the string the window came from
    (the file). *)

val r_int : reader -> int
val r_i64 : reader -> int64
val r_bool : reader -> bool

val r_tag : reader -> expect:int -> what:string -> unit
(** Consume one tag byte; @raise Corrupt when it is not [expect]. *)

val r_string : reader -> string
val r_int_array : reader -> int array

val r_count : reader -> min_bytes:int -> what:string -> int
(** An item count for items encoded in at least [min_bytes] bytes each,
    checked plausible against the bytes left in the window, so a forged
    count is rejected before anything is sized by it.
    @raise Corrupt ["implausible <what> N"]. *)

val r_array_length : reader -> int
(** The length prefix of a {!w_int_array} ({!r_count} of 8-byte
    elements); the elements follow as {!r_int}s. *)

val r_int_sub_into :
  reader -> int array -> pos:int -> len:int -> mismatch:string -> unit
(** Read a {!w_int_array} of exactly [len] elements straight into
    [dst.(pos) .. dst.(pos + len - 1)].  @raise Failure [mismatch] when
    the encoded length differs (after the plausibility check of
    {!r_array_length}). *)

val r_int_array_into : reader -> int array -> mismatch:string -> unit
(** {!r_int_sub_into} over the whole of [dst]. *)

val r_opt_int : reader -> int option

val remaining : reader -> int
(** Bytes left before the end of the window. *)

val of_string : magic:string -> string -> (reader, string) result
(** Validate the framing (magic, version, length, checksum) and return a
    reader windowed on the payload, in place.  All errors — including a
    recognisable-but-wrong schema version — are positioned strings. *)

val r_framed : reader -> magic:string -> reader
(** Read one {!w_framed} frame: its length prefix must fit the parent
    window, and its magic, payload length (which must fill the prefix
    exactly) and checksum must validate.  Returns a sub-reader windowed
    on the frame's payload and moves the parent past the frame.
    @raise Corrupt positioned inside the frame — a forged payload length
    is reported at its own length field. *)

val of_file : magic:string -> path:string -> (reader, string) result
(** {!of_string} on a file's contents; errors are prefixed with the
    path. *)

val load_latest_valid :
  magic:string -> path:string -> keep:int -> (string * string, string) result
(** Walk the rotation chain newest-first ({!slot_paths}) and return the
    first [(slot, contents)] whose framing validates; a torn newest
    snapshot falls back to the previous slot.  [Error] joins the
    per-slot reasons when no slot validates. *)
