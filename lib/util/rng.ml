(* The xoshiro256** state is four int64 words in one 32-byte [Bytes].
   [Bytes.get_int64_le]/[set_int64_le] compile to unboxed loads and
   stores, so a draw allocates nothing; mutable [int64] record fields
   would box (and [caml_modify]) every one of the four writes. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (i * 8)
let[@inline] set t i v = Bytes.set_int64_le t (i * 8) v

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let state t = Array.init 4 (get t)

let of_state a =
  if Array.length a <> 4 then invalid_arg "Rng.of_state: expected 4 words";
  let t = Bytes.create 32 in
  Array.iteri (set t) a;
  t

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* One xoshiro256** step.  Inlined into every drawing function below so
   the result stays unboxed until a caller needs it as an [int64]. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let int64 t = next t

(* The low 63 bits of the next output, as an immediate int. *)
let bits t = Int64.to_int (next t)

let split t = of_splitmix (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits keeps the result unbiased. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let v = ref (bits t land mask) in
  let r = ref (!v mod bound) in
  while !v - !r > mask - bound + 1 do
    v := bits t land mask;
    r := !v mod bound
  done;
  !r

let float_bits t = bits t land 0x1F_FFFF_FFFF_FFFF
let float t bound = bound *. (float_of_int (float_bits t) /. 9007199254740992.0)

let bool t = bits t land 1 = 1

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
