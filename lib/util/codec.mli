(** One function per snapshot section, for writing and for reading.

    A section of a snapshot ([mp5-snap/1], [mp5-fab/1]) is one function
    over a codec [t].  Per field it passes the value to write and gets
    back the value the field holds: on a writer the value passed, on a
    reader the value read and checked against the field's rule.  So

    {[ sim.delivered <- Codec.nat io ~what:"delivered" sim.delivered ]}

    writes the field, reads it and states its rule, in one branch on the
    mode plus the {!Binio} access: nothing is interpreted and nothing
    allocated per field.  A rule is one of:
    - [Any]: every int is valid (a digest word, a register or header
      value);
    - [Range]: an int range, a tag, a boolean;
    - [Count]: an item count bounded by the bytes left, so nothing is
      sized by a forged count;
    - [Xref]: a reference to other decoded state (a pipeline below [k],
      a cell inside its register, a seq that is live or doomed), checked
      where it is read or by the section once what it names is read;
    - [Frame]: a nested frame's length ({!framed}).

    A field that breaks its rule raises {!Binio.Corrupt} positioned at
    it; a range error reads ["<what> N out of range [0, n)"] for an
    index and ["<what> N out of range [lo, hi]"] otherwise. *)

type t
type rule = Any | Range | Count | Xref | Frame

val rule_name : rule -> string
val reader : Binio.reader -> t

val encode : magic:string -> (t -> unit) -> string
(** {!Binio.to_string} with a writing codec: the body runs twice
    (sizing, then writing). *)

val reading : t -> bool

val position : t -> int
(** A reader's offset of the next field; [-1] on a writer. *)

val remaining : t -> int
(** Bytes left in a reader's window; [0] on a writer. *)

val fail : at:int -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Binio.Corrupt} at byte [at]. *)

(** {2 Fields}

    Each returns the field's value; [what] names it in errors and in
    {!walk}.  [tag] (a section tag byte, which must be the one given),
    [bool] and [flag] (a 0/1 int) are [Range]; [word] and [i64] are
    [Any]; [int] is [Range] in [\[lo, hi\]] and [nat] in
    [\[0, max_int\]]; [xref] is [Xref] in [\[lo, hi\]] and [index] in
    [\[0, bound)]; [choice] is a constructor tag in [\[0, n)], its error
    ["<what> N"]; [xword] is an [Xref] the caller checks against a
    digest or count it holds, and [expect] one that must equal [n]. *)

val tag : t -> int -> what:string -> unit
val bool : t -> what:string -> bool -> bool
val flag : t -> what:string -> int -> int
val word : t -> what:string -> int -> int
val i64 : t -> what:string -> int64 -> int64
val int : t -> lo:int -> hi:int -> what:string -> int -> int
val nat : t -> what:string -> int -> int
val xref : t -> lo:int -> hi:int -> what:string -> int -> int
val index : t -> bound:int -> what:string -> int -> int
val choice : t -> n:int -> what:string -> int -> int
val xword : t -> what:string -> int -> int
val expect : t -> n:int -> what:string -> mismatch:string -> int -> unit

val count : t -> min_bytes:int -> what:string -> int -> int
(** A [Count] of items of at least [min_bytes] bytes each. *)

val fixed : t -> n:int -> mismatch:string -> unit
(** An array length the program fixes at [n]. *)

val ints_in :
  t -> rule -> lo:int -> hi:int -> what:string -> mismatch:string -> int array -> pos:int ->
  len:int -> unit
(** [a.(pos) .. a.(pos + len - 1)] as an int array of that {!fixed}
    length, written from [a] or read into it in place; unless the rule
    is [Any] each element lies in [\[lo, hi\]]. *)

val ints : t -> what:string -> mismatch:string -> int array -> pos:int -> len:int -> unit
(** {!ints_in} of [Any] elements. *)

val int_array_in : t -> rule -> lo:int -> hi:int -> what:string -> int array -> int array
(** A [Count]-prefixed int array, elements as in {!ints_in}. *)

val int_array : t -> what:string -> int array -> int array
val string : t -> what:string -> string -> string

val framed : t -> magic:string -> (t -> unit) -> unit
(** A nested frame ({!Binio.w_framed}): the body writes into it in
    place, or reads it through a window bounded by the frame once its
    checksum has passed. *)

(** {2 The field walk}

    The fields a decode reads, with their offsets and rules, come from
    the section functions themselves: there is no second field list. *)

type field = { pos : int; width : int; rule : rule; what : string }
(** A field at byte [pos], [width] bytes (8, or 1 for a tag or bool). *)

val walk : (unit -> 'a) -> 'a * field list
(** Run [f], listing every field its readers read, in order. *)

val forge : string -> field list -> field -> int -> string
(** [forge snap fields f v]: [snap] with [f] set to [v] (its low byte
    for a 1-byte field), every frame around [f] and then the payload
    resealed.  [fields] is [snap]'s {!walk}. *)
