(* Calendar queue: deliveries live in a circular array of per-cycle
   buckets.  The distance between a [schedule]'s [at] and the oldest
   pending cycle is bounded by the pipeline depth (a phantom travels at
   most [n_stages] cycles), so the bucket window stays small; it doubles
   if a delivery ever lands beyond the current horizon.  Each bucket is
   a flat int array of (seq, stage/dest/ring, cell, slot) quadruples, so
   [schedule] and [drain] are int stores and loads: no delivery record
   is allocated, and a drained bucket keeps nothing reachable. *)
type t = {
  mutable buckets : int array array;  (* power-of-two length; cycle c at c land (len-1) *)
  mutable fill : int array;           (* ints used per bucket: 4 per delivery *)
  mutable base : int;                 (* lower bound on pending cycles *)
  mutable count : int;
}

let create () = { buckets = Array.make 16 [||]; fill = Array.make 16 0; base = 0; count = 0 }

(* Every pending cycle lies in [base, base + length buckets), so each
   bucket holds deliveries of exactly one cycle. *)

let grow t ~until =
  let old = t.buckets and old_fill = t.fill in
  let old_len = Array.length old in
  let len = ref (2 * old_len) in
  while until - t.base >= !len do
    len := 2 * !len
  done;
  let buckets = Array.make !len [||] and fill = Array.make !len 0 in
  for d = 0 to old_len - 1 do
    let c = t.base + d in
    buckets.(c land (!len - 1)) <- old.(c land (old_len - 1));
    fill.(c land (!len - 1)) <- old_fill.(c land (old_len - 1))
  done;
  t.buckets <- buckets;
  t.fill <- fill

(* stage/dest/ring in one int; dest and ring are pipelines (< 64) *)
let pack ~stage ~dest ~ring = (stage lsl 12) lor (dest lsl 6) lor ring

let schedule t ~at ~seq ~stage ~dest ~ring ~cell ~slot =
  if stage < 0 || (dest lor ring) lsr 6 <> 0 then
    invalid_arg "Channel.schedule: stage, dest or ring out of range";
  if t.count = 0 then t.base <- at
  else if at < t.base then begin
    (* Window slides down; keep the previous upper edge reachable. *)
    let hi = t.base + Array.length t.buckets - 1 in
    t.base <- at;
    if hi - at >= Array.length t.buckets then grow t ~until:hi
  end;
  if at - t.base >= Array.length t.buckets then grow t ~until:at;
  let i = at land (Array.length t.buckets - 1) in
  let n = t.fill.(i) in
  let b = t.buckets.(i) in
  let b =
    if n + 4 <= Array.length b then b
    else begin
      let nb = Array.make (max 32 (2 * Array.length b)) 0 in
      Array.blit b 0 nb 0 n;
      t.buckets.(i) <- nb;
      nb
    end
  in
  b.(n) <- seq;
  b.(n + 1) <- pack ~stage ~dest ~ring;
  b.(n + 2) <- cell;
  b.(n + 3) <- slot;
  t.fill.(i) <- n + 4;
  t.count <- t.count + 1

let drain t ~now f =
  if t.count > 0 && now >= t.base && now - t.base < Array.length t.buckets then begin
    let i = now land (Array.length t.buckets - 1) in
    let n = t.fill.(i) in
    if n > 0 then begin
      let b = t.buckets.(i) in
      t.count <- t.count - (n / 4);
      t.fill.(i) <- 0;
      let j = ref 0 in
      while !j < n do
        let packed = b.(!j + 1) in
        f ~seq:b.(!j) ~stage:(packed lsr 12) ~dest:((packed lsr 6) land 63) ~ring:(packed land 63)
          ~cell:b.(!j + 2) ~slot:b.(!j + 3);
        j := !j + 4
      done
    end;
    (* Nothing is pending at or before [now] any more: keep the window
       sliding with the clock instead of growing to span a whole busy
       period.  Only after the callbacks: while bucket [now] is being
       read, a delivery one window ahead must grow the calendar, not
       land in that bucket. *)
    if now = t.base then t.base <- now + 1
  end

let pending t = t.count

let clear t =
  Array.fill t.fill 0 (Array.length t.fill) 0;
  t.base <- 0;
  t.count <- 0

(* Cycles ascending from [base], per-cycle in scheduling order.
   Replaying [schedule] in this order rebuilds an observationally
   identical channel: [drain] returns per-cycle deliveries in push
   order, and that order is preserved. *)
let iter t f =
  if t.count > 0 then begin
    let mask = Array.length t.buckets - 1 in
    for d = 0 to Array.length t.buckets - 1 do
      let at = t.base + d in
      let b = t.buckets.(at land mask) in
      let n = t.fill.(at land mask) in
      let j = ref 0 in
      while !j < n do
        let packed = b.(!j + 1) in
        f ~at ~seq:b.(!j) ~stage:(packed lsr 12) ~dest:((packed lsr 6) land 63)
          ~ring:(packed land 63) ~cell:b.(!j + 2) ~slot:b.(!j + 3);
        j := !j + 4
      done
    done
  end

let set_slots t f =
  if t.count > 0 then begin
    let mask = Array.length t.buckets - 1 in
    for d = 0 to Array.length t.buckets - 1 do
      let i = (t.base + d) land mask in
      let b = t.buckets.(i) in
      let j = ref 0 in
      while !j < t.fill.(i) do
        let packed = b.(!j + 1) in
        b.(!j + 3) <-
          f ~seq:b.(!j) ~stage:(packed lsr 12) ~dest:((packed lsr 6) land 63) ~cell:b.(!j + 2)
            ~slot:b.(!j + 3);
        j := !j + 4
      done
    done
  end

let next_due t =
  if t.count = 0 then max_int
  else begin
    let mask = Array.length t.buckets - 1 in
    let c = ref t.base in
    while t.fill.(!c land mask) = 0 do
      incr c
    done;
    (* Tighten the lower bound so later scans restart here. *)
    t.base <- !c;
    !c
  end
