(* Open-addressing hash table from int keys to int values: linear
   probing over a power-of-two slot array, backward-shift deletion (no
   tombstones).  The simulator's FIFO directories perform a
   find/replace/remove per packet per stage; compared to [Hashtbl] this
   avoids the generic hash primitive and all bucket allocation.  The
   probe loops are [while] loops over locals, not local recursive
   functions, which would capture the table in a fresh closure per
   call. *)

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

(* The slot holding [key], or the free slot ending its probe chain. *)
let probe keys key =
  let mask = Array.length keys - 1 in
  let i = ref (slot keys key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t key =
  let i = probe t.keys key in
  if key <> empty && Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i
  else raise Not_found

let rec replace t key v =
  if key = empty then invalid_arg "Int_table.replace: reserved key";
  let keys = t.keys in
  let i = probe keys key in
  if Array.unsafe_get keys i = key then t.vals.(i) <- v
  else if 4 * (t.len + 1) > 3 * Array.length keys then begin
    resize t (2 * Array.length keys);
    replace t key v
  end
  else begin
    keys.(i) <- key;
    t.vals.(i) <- v;
    t.len <- t.len + 1
  end

and resize t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.len <- 0;
  for i = 0 to Array.length okeys - 1 do
    let k = okeys.(i) in
    if k <> empty then replace t k ovals.(i)
  done

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.len <- 0

let remove t key =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let i = probe keys key in
  if key <> empty && Array.unsafe_get keys i = key then begin
    t.len <- t.len - 1;
    (* Backward-shift deletion: walk the probe chain after the hole and
       pull back any entry whose home slot lies at or before the hole, so
       lookups never cross a gap. *)
    let hole = ref i and j = ref i and walking = ref true in
    while !walking do
      j := (!j + 1) land mask;
      let k = Array.unsafe_get keys !j in
      if k = empty then begin
        keys.(!hole) <- empty;
        walking := false
      end
      else if (!j - slot keys k) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- k;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end
    done
  end
