type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let grow t n =
  let data = Array.make (max n (max 8 (2 * Array.length t.data))) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let[@inline] push t x =
  if t.len = Array.length t.data then grow t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let reserve t n = if n > Array.length t.data then grow t n

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get: index out of range";
  Array.unsafe_get t.data i

let unsafe_get t i = Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.set: index out of range";
  Array.unsafe_set t.data i x

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Int_vec.sub: range out of bounds";
  Array.sub t.data off len

let clear t = t.len <- 0
