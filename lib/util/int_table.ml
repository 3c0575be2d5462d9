(* Open-addressing hash table from int keys to int values: linear
   probing over a power-of-two slot array, backward-shift deletion (no
   tombstones).  The simulator's FIFO directories perform a
   find/replace/remove per packet per stage; compared to [Hashtbl] this
   avoids the generic hash primitive and all bucket allocation — every
   operation here allocates nothing. *)

type t = {
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable vals : int array;
  mutable len : int;
}

(* [min_int] cannot collide with stored keys: the simulator keys tables
   by packet sequence numbers and packed non-negative descriptors. *)
let empty = min_int

let create () = { keys = Array.make 32 empty; vals = Array.make 32 0; len = 0 }

let length t = t.len

(* Multiplicative hashing; the multiplier is odd so the low bits taken by
   the mask remain a bijection of the key. *)
let slot keys key = (key * 0x2545F4914F6CDD1D) lsr 3 land (Array.length keys - 1)

let find t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let rec go i =
    let k = Array.unsafe_get keys i in
    if k = key then Array.unsafe_get t.vals i
    else if k = empty then raise Not_found
    else go ((i + 1) land mask)
  in
  go (slot keys key)

let mem t key =
  match find t key with _ -> true | exception Not_found -> false

let rec replace t key v =
  if key = empty then invalid_arg "Int_table.replace: reserved key";
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let rec go i =
    let k = Array.unsafe_get keys i in
    if k = key then t.vals.(i) <- v
    else if k = empty then
      if 4 * (t.len + 1) > 3 * (mask + 1) then begin
        grow t;
        replace t key v
      end
      else begin
        keys.(i) <- key;
        t.vals.(i) <- v;
        t.len <- t.len + 1
      end
    else go ((i + 1) land mask)
  in
  go (slot keys key)

and grow t = resize t (2 * Array.length t.keys)

and resize t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.len <- 0;
  Array.iteri (fun i k -> if k <> empty then replace t k ovals.(i)) okeys

(* The load-factor bound [replace] grows at: [4 * len <= 3 * slots]. *)
let reserve t n =
  let cap = ref (Array.length t.keys) in
  while 4 * n > 3 * !cap do
    cap := 2 * !cap
  done;
  if !cap > Array.length t.keys then resize t !cap

let remove t key =
  let keys = t.keys in
  let vals = t.vals in
  let mask = Array.length keys - 1 in
  let rec locate i =
    let k = Array.unsafe_get keys i in
    if k = key then i else if k = empty then -1 else locate ((i + 1) land mask)
  in
  let i = locate (slot keys key) in
  if i >= 0 then begin
    t.len <- t.len - 1;
    (* Backward-shift deletion: walk the probe chain after the hole and
       pull back any entry whose home slot lies at or before the hole, so
       lookups never cross a gap. *)
    let rec shift hole j =
      let j = (j + 1) land mask in
      let k = Array.unsafe_get keys j in
      if k = empty then keys.(hole) <- empty
      else begin
        let home = slot keys k in
        if (j - home) land mask >= (j - hole) land mask then begin
          keys.(hole) <- k;
          vals.(hole) <- vals.(j);
          shift j j
        end
        else shift hole j
      end
    in
    shift i i
  end
