(** Versioned binary framing for machine snapshots ([mp5-snap/1]).

    The on-disk shape is [magic '\n' length:8 checksum:8 payload]; inside
    the payload every integer is a fixed-width 64-bit little-endian word
    (OCaml ints round-trip exactly through [Int64]), booleans and section
    tags are single bytes, and strings/arrays are length-prefixed.
    Reader failures — truncation, checksum mismatch, a wrong tag — raise
    {!Corrupt} with the absolute byte offset in the file, so the error a
    user sees ("byte N: reason") points at the damage.  The snapshot
    sections are not written against this module directly: each is one
    function over a {!Codec.t}, which pairs every field's read with its
    write and its rule. *)

exception Corrupt of { pos : int; reason : string }

val corrupt_message : pos:int -> reason:string -> string
(** ["byte N: reason"] — the uniform shape of every snapshot error. *)

(** {2 Writing} *)

type writer
(** Where an encoder writes: see {!to_string}. *)

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

(** {3 Checksums}

    Every checksum in a snapshot — the payload's and each nested
    frame's — is standard 64-bit FNV-1a (offset basis
    [0xcbf29ce484222325], prime [0x100000001b3]) over every byte of the
    payload it guards, in order.  The paths differ only in when each
    is computed:

    - {b Writing.}  A nested frame's checksum is not computed when the
      frame closes.  {!to_string} seals every frame, inner frames before
      the frames around them, while it hashes the payload: one
      {!fnv2} loop hashes a frame's body and advances the payload chain
      up to that frame's checksum field.
    - {b Reading.}  {!of_string} and {!r_framed} check eagerly: a
      reader exists only for a window whose checksum has passed.
      {!of_string_deferred} checks the framing eagerly and defers the
      payload checksum: each {!r_framed} on it advances the payload
      chain to the end of the frame it checks, in the same loop, and
      {!verify} completes it.

    Error precedence under a deferred check: a caller decodes, then
    calls {!verify} whatever the decode did, and reports a failed
    {!verify} ahead of any decode error, since a payload that fails its
    checksum makes every later complaint about it moot.  The error is
    the one {!of_string} gives, positioned at the length field. *)

val checksum : string -> int64
(** FNV-1a-64 of a whole string. *)

val fnv_basis : int64
(** The FNV-1a-64 offset basis, the state of an empty chain. *)

type lanes = { mutable ha : int64; mutable hb : int64 }
(** Two FNV-1a-64 chain states. *)

val fnv2 : lanes -> string -> a_off:int -> a_len:int -> b_off:int -> b_len:int -> unit
(** Advance chain [ha] over the [a_len] bytes at [a_off] and chain [hb]
    over the [b_len] bytes at [b_off], in one loop that steps both
    chains eight bytes per iteration.  The ranges may differ in length
    and may overlap.  From {!fnv_basis}, each lane ends at the
    {!checksum} of its range.
    @raise Invalid_argument when a range is not inside the string. *)

val to_string : magic:string -> (writer -> unit) -> string
(** [to_string ~magic body] is the complete framed snapshot (magic line
    + length + checksum + payload) of what [body] writes, every nested
    frame sealed.  [body] runs twice: once to size the snapshot, then
    into the returned string, allocated at its exact size; beyond what
    [body] itself allocates, that string and three ints per nested
    frame are all an encode allocates.  [body] must write the same
    bytes both times.
    @raise Invalid_argument when it does not. *)

(** {3 Nested frames}

    A snapshot can carry whole snapshots of another schema inside its
    payload — a fabric snapshot embeds one machine snapshot per switch.
    A nested frame is a {!w_string}-style length prefix followed by a
    complete frame ([magic '\n' length checksum payload]); it is written
    in place and read through a bounded window, never copied out. *)

val w_framed : writer -> magic:string -> (writer -> unit) -> unit
(** [w_framed w ~magic body] runs [body w] and frames what it wrote in
    place: the bytes equal [w_string w (to_string ~magic body)].  The
    frame's checksum is filled in when {!to_string} seals the snapshot.
    [body] must only append to [w]. *)

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

val remaining : reader -> int
(** Bytes left before the end of the window. *)

val position : reader -> int
(** Absolute offset of the next read, for a caller that validates a
    field after reading it and raises {!Corrupt} positioned at it. *)

val of_string : magic:string -> string -> (reader, string) result
(** Validate the framing (magic, version, length, checksum) and return a
    reader windowed on the payload, in place.  All errors — including a
    recognisable-but-wrong schema version — are positioned strings. *)

val of_string_deferred : magic:string -> string -> (reader, string) result
(** {!of_string} with the payload checksum deferred: magic, version,
    length and trailing bytes are checked now, the checksum by the
    {!r_framed} calls on the reader and a final {!verify}.  The payload
    is not verified until {!verify} returns [Ok]. *)

val verify : reader -> (unit, string) result
(** Complete a deferred payload check: [Error] is
    ["byte N: checksum mismatch (corrupt snapshot)"], exactly the error
    {!of_string} gives for the same bytes.  [Ok] for a reader without a
    deferred check; calling it again repeats the verdict. *)

val r_framed : reader -> magic:string -> reader
(** Read one {!w_framed} frame: its length prefix must fit the parent
    window, and its magic, payload length (which must fill the prefix
    exactly) and checksum must validate.  Returns a sub-reader windowed
    on the frame's payload and moves the parent past the frame.  On a
    reader of {!of_string_deferred} the payload chain advances to the
    end of the frame in the same loop as the frame's check, even when
    the frame's own checksum then fails.
    @raise Corrupt positioned inside the frame — a forged payload length
    is reported at its own length field, a checksum mismatch at the
    frame's. *)

val load_latest_valid :
  magic:string -> path:string -> keep:int -> (string * string, string) result
(** Walk the rotation chain newest-first ([path], [path.1], ...) and return the
    first [(slot, contents)] whose framing validates; a torn newest
    snapshot falls back to the previous slot.  [Error] joins the
    per-slot reasons when no slot validates. *)
