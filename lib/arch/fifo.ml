(* A ring is one int array of 4-int physical slots — timestamp, key,
   data, state word — over a power-of-two slot count, so an index wraps
   with a mask and a queued entry is never a heap block: pushes and pops
   are plain int stores, with no allocation and no write barrier. *)
let o_key = 1
and o_data = 2
and o_state = 3

(* state word bits; 0 is a live phantom *)
let has_data = 1
and cancelled = 2

type ring = {
  mutable cells : int array;
  mutable mask : int;       (* physical slots - 1 *)
  mutable head : int;       (* physical slot of the head entry *)
  mutable len : int;
  mutable head_seq : int;   (* stable sequence number of the head entry *)
  mutable capacity : int;   (* logical capacity: what "full" means *)
}

(* An entry's position is [(stable seq lsl 6) lor ring]: one immediate
   int the caller keeps (the simulator, in its packet slab) and hands
   back to [insert_data] and [cancel], which go straight to the entry. *)
type t = {
  rings : ring array;
  adaptive : bool;
  mutable data_count : int;
  mutable high_water : int;
  mutable cancelled_count : int;  (* queued entries marked cancelled *)
}

let empty = -1
let blocked_key code = -2 - code

let pow2_at_least n =
  if n > Sys.max_array_length / 4 then invalid_arg "Fifo: ring too large";
  let c = ref 1 in
  while !c < n do
    c := 2 * !c
  done;
  !c

let make_ring ~capacity ~slots =
  if capacity <= 0 then invalid_arg "Fifo: ring capacity must be positive";
  let slots = pow2_at_least slots in
  { cells = Array.make (4 * slots) 0; mask = slots - 1; head = 0; len = 0; head_seq = 0; capacity }

(* Cell offset of logical position [i] (0 = head). *)
let off r i = ((r.head + i) land r.mask) lsl 2

(* 4x the physical storage, live entries moved to the front; stable
   sequence numbers are logical and do not move. *)
let grow_storage r =
  let slots = 4 * (r.mask + 1) in
  let cells = Array.make (4 * slots) 0 in
  for i = 0 to r.len - 1 do
    Array.blit r.cells (off r i) cells (4 * i) 4
  done;
  r.cells <- cells;
  r.mask <- slots - 1;
  r.head <- 0

let pop_head r =
  r.head <- (r.head + 1) land r.mask;
  r.len <- r.len - 1;
  r.head_seq <- r.head_seq + 1

let make ~k ~capacity ~adaptive ~slots =
  if k <= 0 then invalid_arg "Fifo.create: k must be positive";
  if k > 64 then invalid_arg "Fifo.create: k must be at most 64";
  if capacity <= 0 then invalid_arg "Fifo.create: capacity must be positive";
  {
    rings = Array.init k (fun _ -> make_ring ~capacity ~slots);
    adaptive;
    data_count = 0;
    high_water = 0;
    cancelled_count = 0;
  }

(* Adaptive rings reserve storage for twice their configured capacity
   up front (and [grow_storage] grows it 4x at a time): small, frequent
   doublings early in a run put major-GC slices into its setup. *)
let create ~k ~capacity ~adaptive =
  make ~k ~capacity ~adaptive ~slots:(if adaptive then 2 * capacity else capacity)

(* One slot per ring: a short-lived queue holding a few entries, created
   in numbers, touches few of its [k] rings. *)
let create_small ~k ~capacity ~adaptive = make ~k ~capacity ~adaptive ~slots:1

(* The new entry's position, or -1 when the ring is full. *)
let push_entry t ~ring ~ts ~key ~data ~state =
  if key < 0 then invalid_arg "Fifo: keys must be non-negative";
  let r = t.rings.(ring) in
  if r.len = r.capacity && t.adaptive then r.capacity <- 2 * r.capacity;
  if r.len = r.capacity then -1
  else begin
    if r.len > r.mask then grow_storage r;
    let o = off r r.len in
    let c = r.cells in
    c.(o) <- ts;
    c.(o + o_key) <- key;
    c.(o + o_data) <- data;
    c.(o + o_state) <- state;
    let pos = ((r.head_seq + r.len) lsl 6) lor ring in
    r.len <- r.len + 1;
    pos
  end

let bump_data t =
  t.data_count <- t.data_count + 1;
  if t.data_count > t.high_water then t.high_water <- t.data_count

let push_phantom t ~ring ~ts ~key = push_entry t ~ring ~ts ~key ~data:0 ~state:0

let push_data t ~ring ~ts ~key v =
  if v < 0 then invalid_arg "Fifo.push_data: payloads must be non-negative";
  if push_entry t ~ring ~ts ~key ~data:v ~state:has_data < 0 then `Dropped
  else begin
    bump_data t;
    `Ok
  end

(* [(cell offset lsl 6) lor ring] of the entry at position [pos] when
   it still holds [key], else -1: a position whose entry was popped or
   purged falls outside the ring's live range, and one that names
   another ring, or a slot since reused, fails the key check. *)
let locate t ~pos ~key =
  if pos < 0 then -1
  else
    let ring = pos land 63 in
    if ring >= Array.length t.rings then -1
    else
      let r = Array.unsafe_get t.rings ring in
      let i = (pos lsr 6) - r.head_seq in
      if i < 0 || i >= r.len then -1
      else
        let o = off r i in
        if r.cells.(o + o_key) = key then (o lsl 6) lor ring else -1

let insert_data t ~pos ~key v =
  if v < 0 then invalid_arg "Fifo.insert_data: payloads must be non-negative";
  let loc = locate t ~pos ~key in
  if loc < 0 then `No_phantom
  else
    let c = t.rings.(loc land 63).cells and o = loc lsr 6 in
    if c.(o + o_state) <> 0 (* data already, or cancelled *) then `No_phantom
    else begin
      c.(o + o_data) <- v;
      c.(o + o_state) <- has_data;
      bump_data t;
      `Ok
    end

let cancel t ~pos ~key =
  let loc = locate t ~pos ~key in
  if loc >= 0 then begin
    let c = t.rings.(loc land 63).cells and o = loc lsr 6 in
    let s = c.(o + o_state) in
    if s land cancelled = 0 then begin
      c.(o + o_state) <- s lor cancelled;
      t.cancelled_count <- t.cancelled_count + 1
    end
  end

(* Purge cancelled entries sitting at ring heads: they cost nothing (the
   hardware skips them when updating head pointers). *)
let purge_ring t r =
  while r.len > 0 && r.cells.((r.head lsl 2) + o_state) land cancelled <> 0 do
    let o = r.head lsl 2 in
    t.cancelled_count <- t.cancelled_count - 1;
    if r.cells.(o + o_state) land has_data <> 0 then t.data_count <- t.data_count - 1;
    pop_head r
  done

(* Cancellations only happen on drops, so the common case is a single
   integer test instead of peeking every ring. *)
let purge_all t =
  if t.cancelled_count > 0 then Array.iter (purge_ring t) t.rings

(* Index of the ring holding the logical head — the smallest head
   timestamp, the first such ring on ties — or -1 when all are empty. *)
let min_ring t =
  let rings = t.rings in
  let best = ref (-1) and best_ts = ref 0 in
  for i = 0 to Array.length rings - 1 do
    let r = Array.unsafe_get rings i in
    if r.len > 0 then begin
      let ts = Array.unsafe_get r.cells (r.head lsl 2) in
      if !best < 0 || ts < !best_ts then begin
        best := i;
        best_ts := ts
      end
    end
  done;
  !best

let head t =
  purge_all t;
  let b = min_ring t in
  if b < 0 then empty
  else
    let r = t.rings.(b) in
    let o = r.head lsl 2 in
    if r.cells.(o + o_state) land has_data <> 0 then r.cells.(o + o_data)
    else -2 - r.cells.(o + o_key)

let head_key t =
  purge_all t;
  let b = min_ring t in
  if b < 0 then -1
  else
    let r = t.rings.(b) in
    r.cells.((r.head lsl 2) + o_key)

let take t =
  purge_all t;
  let b = min_ring t in
  if b < 0 then empty
  else
    let r = t.rings.(b) in
    let o = r.head lsl 2 in
    if r.cells.(o + o_state) land has_data = 0 then -2 - r.cells.(o + o_key)
    else begin
      let v = r.cells.(o + o_data) in
      pop_head r;
      t.data_count <- t.data_count - 1;
      v
    end

let pop_data t =
  let code = take t in
  if code >= 0 then code
  else if code = empty then invalid_arg "Fifo.pop_data: empty"
  else invalid_arg "Fifo.pop_data: head is a phantom"

let length t = Array.fold_left (fun acc r -> acc + r.len) 0 t.rings
let data_length t = t.data_count
let max_occupancy t = t.high_water

(* Entry [i] of ring [r] as [(ts, key, state, data)], for the slow
   whole-queue walks below. *)
let iter_ring f r =
  for i = 0 to r.len - 1 do
    let o = off r i in
    let c = r.cells in
    f c.(o) c.(o + o_key) c.(o + o_state) c.(o + o_data)
  done

let iter_data t f =
  Array.iter
    (iter_ring (fun _ key state v ->
         if state = has_data (* live, not cancelled *) then f ~key v))
    t.rings

let ring_data t ~ring i =
  let r = t.rings.(ring) in
  if i < 0 || i >= r.len then invalid_arg "Fifo.ring_data: index out of range";
  let o = off r i in
  if r.cells.(o + o_state) = has_data then r.cells.(o + o_data) else -1

(* --- checkpointing ---

   Everything observable about the queue: per ring its logical capacity
   (an adaptive ring's grows), the stable sequence number of its head,
   which positions are built from, and its entries head to tail; then
   the high-water mark.  Physical storage is not observable and not
   recorded.  Both directions walk the rings in place, and a decode
   overwrites every ring, so a FIFO is decoded into as it stands. *)

let rings t = Array.length t.rings
let ring_capacity t ~ring = t.rings.(ring).capacity
let ring_length t ~ring = t.rings.(ring).len

(* Cycles and seqs stay below it, so a forged key cannot overflow a
   phantom head's code ([-2 - key]) nor a head seq a position. *)
let max_key = 1 lsl 60

let codec io t ~data ~phantom =
  let module C = Mp5_util.Codec in
  if C.reading io then begin
    t.data_count <- 0;
    t.cancelled_count <- 0
  end;
  t.high_water <- C.nat io ~what:"FIFO high-water mark" t.high_water;
  let k = Array.length t.rings in
  C.expect io ~n:k ~what:"FIFO ring count"
    ~mismatch:"snapshot: FIFO ring count does not match k" k;
  for ring = 0 to k - 1 do
    let r = t.rings.(ring) in
    r.capacity <- C.int io ~lo:1 ~hi:max_key ~what:"FIFO ring capacity" r.capacity;
    r.head_seq <- C.int io ~lo:0 ~hi:(max_int lsr 7) ~what:"FIFO ring head seq" r.head_seq;
    let at = C.position io in
    (* an entry is at least ts, key and two flag bytes *)
    let n = C.count io ~min_bytes:18 ~what:"FIFO ring length" r.len in
    if n > r.capacity then C.fail ~at "snapshot: Fifo.restore_ring: more entries than capacity";
    (* storage for the entries read, never for the recorded capacity *)
    if n > r.mask + 1 then begin
      let slots = pow2_at_least n in
      r.cells <- Array.make (4 * slots) 0;
      r.mask <- slots - 1
    end;
    for i = 0 to n - 1 do
      let c = r.cells and o = off r i in
      c.(o) <- C.word io ~what:"FIFO entry time" c.(o);
      c.(o + o_key) <- C.int io ~lo:0 ~hi:max_key ~what:"FIFO entry key" c.(o + o_key);
      let state = c.(o + o_state) in
      let gone = C.bool io ~what:"FIFO entry cancelled" (state land cancelled <> 0) in
      let full = C.bool io ~what:"FIFO entry data" (state land has_data <> 0) in
      c.(o + o_data) <- (if full then data c.(o + o_data) else 0);
      c.(o + o_state) <- (if full then has_data else 0) lor if gone then cancelled else 0;
      if C.reading io then begin
        if full then t.data_count <- t.data_count + 1
        else if not gone then phantom c.(o + o_key) (((r.head_seq + i) lsl 6) lor ring);
        if gone then t.cancelled_count <- t.cancelled_count + 1
      end
    done;
    r.len <- n
  done
