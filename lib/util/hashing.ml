(* FNV-1a over the 8 little-endian bytes of each int, on the full 64-bit
   state.  One core, [mix], runs on an [Int64] accumulator; it is
   inlined into every entry point, so the accumulator lives in a
   register and nothing is boxed.  Results are the 62-bit
   [Int64.to_int h land 0x3FFF_FFFF_FFFF_FFFF]. *)

let prime = 0x100000001B3L
let offset = 0xCBF29CE484222325L
let mask62 = 0x3FFF_FFFF_FFFF_FFFF
let mask32 = 0xFFFF_FFFF

let[@inline] mix h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((x lsr (shift * 8)) land 0xFF))) prime
  done;
  !h

let[@inline] finish64 h = Int64.to_int h land mask62

let[@inline] combine a b = (a + b) land mask62

let fnv1a_seeded ~seed xs =
  (* A [while] over locals: a [List.iter] closure would capture [h] and
     box the accumulator. *)
  let h = ref (mix offset seed) and rest = ref xs in
  while
    match !rest with
    | [] -> false
    | x :: tl ->
        h := mix !h x;
        rest := tl;
        true
  do
    ()
  done;
  finish64 !h

let fnv1a xs = fnv1a_seeded ~seed:0 xs

(* [fnv1a [x]] and [fnv1a [x; y]] without the list: the single- and
   two-key fast paths of the expression evaluator and the compiled
   [hash(...)] kernels. *)
let fnv1a1 x = finish64 (mix (mix offset 0) x)
let fnv1a2 x y = finish64 (mix (mix (mix offset 0) x) y)

type state = { mutable hi : int; mutable lo : int }

let offset_hi = Int64.to_int (Int64.shift_right_logical offset 32)
let offset_lo = Int64.to_int offset land mask32

let start () = { hi = offset_hi; lo = offset_lo }

let reset st =
  st.hi <- offset_hi;
  st.lo <- offset_lo

let feed st x =
  let h = mix (Int64.logor (Int64.shift_left (Int64.of_int st.hi) 32) (Int64.of_int st.lo)) x in
  st.hi <- Int64.to_int (Int64.shift_right_logical h 32);
  st.lo <- Int64.to_int h land mask32

let value st = ((st.hi land 0x3FFF_FFFF) lsl 32) lor st.lo

