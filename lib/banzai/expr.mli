(** Expression IR evaluated by Banzai atoms.

    Values are signed 32-bit integers with wrap-around arithmetic, which is
    what switch ALUs implement.  Division and modulo by zero evaluate to 0
    (saturating hardware semantics) so that every expression is total —
    a requirement for the deterministic-processing scope of the paper
    (§2, "deterministic processing"). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Bit_and | Bit_or | Bit_xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Log_and | Log_or

type unop = Neg | Log_not | Bit_not

type t =
  | Const of int
  | Field of int
      (** Packet header or compiler metadata field, by field id. *)
  | State_val
      (** The current value of the register cell being accessed; only legal
          inside a stateful atom's update/output expressions. *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Ternary of t * t * t
  | Hash of t list
      (** Hardware hash unit (FNV-1a here); always non-negative. *)
  | Lookup of int * t list
      (** Match-table lookup: table id and key expressions; evaluates to
          the matched entry's action id.  Table contents are fixed during
          the runtime (§2.2.1's control-plane assumption), so lookups are
          pure. *)

val norm32 : int -> int
(** Normalise an OCaml int into the signed 32-bit range. *)

val eval : ?tables:Table.t array -> fields:int array -> state:int option -> t -> int
(** [eval ~tables ~fields ~state e] evaluates [e].  [state] is the
    register cell value when inside a stateful atom; [tables] resolves
    {!Lookup} nodes (defaults to none).  Raises [Invalid_argument] if
    [State_val] is reached with [state = None], a field id or table id is
    out of range — all indicate compiler bugs, not program errors. *)

val eval_raw : Table.t array -> int array -> int option -> t -> int
(** [eval_raw tables fields state e] is {!eval} with plain positional
    arguments: no optional-argument boxing per call, for evaluation in
    simulator hot loops. *)

val eval_update : Table.t array -> int array -> int -> t -> int
(** [eval_update tables fields old e] is [eval_raw tables fields (Some old) e]
    without allocating the option: a stateful atom's update, per access
    of the golden machine. *)

type frame = { mutable base : int array; mutable off : int; mutable len : int }
(** A window into flat memory: the packet's header fields live at
    [base.(off) .. base.(off + len - 1)].  Compiled closures read and
    write fields through a frame so the simulator's struct-of-arrays
    packet slab can retarget one scratch frame per packet (two stores)
    instead of materialising a per-packet array.  Mutable on purpose:
    the hot path re-points [base]/[off] between calls. *)

val frame_of_array : int array -> frame
(** View a standalone header array as a frame ([off = 0],
    [len = Array.length a]).  The array is aliased, not copied. *)

val setf : frame -> int -> int -> unit
(** Bounds-checked field write; raises [Invalid_argument "index out of
    bounds"], matching [fields.(i) <- v] on a plain array. *)

val compile : Table.t array -> state:int ref option -> t -> (frame -> int)
(** [compile tables ~state e] compiles [e] once into a closed arity-1
    closure [fun frame -> v] that is bit-identical to
    [eval_raw tables fields st e] on the fields the frame windows, where
    [st] is [Some !cell] read at call time when [state = Some cell] and
    [None] when [state = None] (a *reached* [State_val] then raises the
    same [Invalid_argument] as the interpreter).  The [int ref] threads
    the register cell value without a second closure argument: unknown
    arity-1 applications are a single indirect call in native code,
    where two-argument ones go through [caml_apply2].  Constructor and
    operator dispatch, constant operands, and single/two-key hashes are
    all specialized away at compile time, so the returned closure
    performs no AST traversal and no allocation. *)

val uses_state : t -> bool
(** Does the expression mention [State_val]? *)

val fields_used : t -> int list
(** Sorted, deduplicated list of field ids the expression reads. *)

val truthy : int -> bool
(** C-style truth: non-zero. *)

val depth : t -> int
(** Operator depth, used by atom capability checks. *)

val size : t -> int
(** Node count. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
