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

let reserve t n x =
  if n > Array.length t.data then begin
    let data = Array.make n x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of range";
  t.data.(i)

let unsafe_get t i = Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of range";
  t.data.(i) <- x

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let scrub t =
  t.len <- 0;
  let data = t.data in
  let n = Array.length data in
  if n > 1 then Array.fill data 1 (n - 1) (Array.unsafe_get data 0)

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iter_rev f t =
  for i = t.len - 1 downto 0 do
    f (Array.unsafe_get t.data i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc
