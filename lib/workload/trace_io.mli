(** Loading and saving packet traces as text.

    The format is line-oriented: one packet per line,

    {v time port field0 field1 ... fieldN v}

    with [#]-comments and blank lines ignored.  All packets must carry the
    same number of fields.  This lets externally captured or hand-written
    traces drive [mp5sim --trace-file], and experiment traces be archived
    for exact replay.

    The grammar, for both readers: lines end at ['\n']; each line is
    trimmed of the whitespace [String.trim] removes; an empty trimmed
    line, or one starting with [#], is skipped; any other line is split
    on single spaces, empty tokens are dropped, and every token must be
    accepted by [int_of_string] (so [+5], [0x1f] and [1_000] are
    integers, and a tab between tokens is not a separator).  The readers
    scan plain decimals ([-] and up to 18 digits) in place and hand any
    other line to that [int_of_string] pipeline; the fast path is only an
    optimisation of this grammar and changes no result or error. *)

val to_string : Mp5_banzai.Machine.input array -> string

val of_string : string -> (Mp5_banzai.Machine.input array, string) result
(** A first pass counts the lines that are neither blank nor comments,
    so the packet array is allocated once, at its final size, and each
    packet is stored straight into it.  Malformed input — non-integer tokens, a line with fewer than two
    tokens, a field-count mismatch (the usual shape of a truncated
    capture), or no packets at all — is rejected with a positioned
    error: [byte OFFSET (line N): reason]. *)

val stream_channel : ?path:string -> in_channel -> Packet_source.t
(** Constant-memory reader over an open channel (e.g. [stdin]) in the
    same line format.  Packets are parsed as they are pulled; a malformed
    line raises {!Packet_source.Error} with the batch reader's positioned
    message (prefixed with [path] when given).  Unlike {!of_string},
    arrival times must be nondecreasing: a stream is single-pass, so the
    simulator relies on each peeked packet bounding the next arrival. *)

val stream : path:string -> (Packet_source.t, string) result
(** {!stream_channel} on a file; the file is closed when the source is
    exhausted.  [Error] only for failure to open. *)

val save : path:string -> Mp5_banzai.Machine.input array -> unit

val load : path:string -> (Mp5_banzai.Machine.input array, string) result
(** {!of_string} on the file's contents; errors are prefixed with the
    path, i.e. [path: byte OFFSET (line N): reason]. *)
