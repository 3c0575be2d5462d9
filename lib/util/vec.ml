type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    (* Grow using [x] as the fill so no dummy element is needed. *)
    let data = Array.make (max 8 (2 * cap)) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  (* In range by construction: [t.len < length t.data] after the growth
     check above. *)
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of range";
  t.data.(i)

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0
