module Vec = Mp5_util.Vec

type t = {
  nf : int;
  na : int;
  mutable cap : int;
  mutable seq : int array;
  mutable time_in : int array;
  mutable ecn : int array;
  mutable fields : int array;
  mutable gk : int array;
  mutable cell : int array;
  mutable dest : int array;
  mutable done_ : int array;
  mutable counted : int array;
  mutable pos : int array;
  free : int Vec.t;
  mutable next : int;
}

let create ~nf ~na =
  {
    nf;
    na;
    cap = 0;
    seq = [||];
    time_in = [||];
    ecn = [||];
    fields = [||];
    gk = [||];
    cell = [||];
    dest = [||];
    done_ = [||];
    counted = [||];
    pos = [||];
    free = Vec.create ();
    next = 0;
  }

let grow_arr arr old_len new_len =
  let a = Array.make new_len 0 in
  Array.blit arr 0 a 0 old_len;
  a

let grow t =
  let cap = max 64 (t.cap * 2) in
  t.seq <- grow_arr t.seq t.cap cap;
  t.time_in <- grow_arr t.time_in t.cap cap;
  t.ecn <- grow_arr t.ecn t.cap cap;
  t.fields <- grow_arr t.fields (t.cap * t.nf) (cap * t.nf);
  t.gk <- grow_arr t.gk (t.cap * t.na) (cap * t.na);
  t.cell <- grow_arr t.cell (t.cap * t.na) (cap * t.na);
  t.dest <- grow_arr t.dest (t.cap * t.na) (cap * t.na);
  t.done_ <- grow_arr t.done_ (t.cap * t.na) (cap * t.na);
  t.counted <- grow_arr t.counted (t.cap * t.na) (cap * t.na);
  t.pos <- grow_arr t.pos (t.cap * t.na) (cap * t.na);
  t.cap <- cap

let alloc t =
  if Vec.is_empty t.free then begin
    if t.next = t.cap then grow t;
    let slot = t.next in
    t.next <- slot + 1;
    slot
  end
  else Vec.pop t.free

(* A released slot's seq is poisoned: no packet has seq -1, so a
   delivery naming the slot no longer matches it. *)
let release t slot =
  t.seq.(slot) <- -1;
  Vec.push t.free slot

let clear t =
  Vec.clear t.free;
  t.next <- 0
