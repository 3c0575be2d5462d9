module Ring = struct
  let due = 0
  let aux = 1
  let fseq = 2
  let dst = 3
  let inject = 4
  let hops = 5
  let time = 6
  let port = 7
  let nh = 8
  let header_base = 9

  (* [head] and [tail] are absolute positions: the live ints are
     [buf.(p land mask)] for [head <= p < tail], and an emptied ring
     restarts at 0. *)
  type t = {
    mutable buf : int array;
    mutable mask : int;
    mutable head : int;
    mutable tail : int;
    mutable count : int;
  }

  let create () = { buf = [||]; mask = -1; head = 0; tail = 0; count = 0 }
  let length t = t.count
  let is_empty t = t.count = 0
  let capacity t = t.mask + 1

  let clear t =
    t.head <- 0;
    t.tail <- 0;
    t.count <- 0

  (* Double until [extra] more ints fit.  Every live int keeps its
     absolute position, so positions survive growth. *)
  let grow t extra =
    let used = t.tail - t.head in
    let cap = ref (max 32 (2 * (t.mask + 1))) in
    while !cap < used + extra do
      cap := 2 * !cap
    done;
    let buf = Array.make !cap 0 and mask = !cap - 1 in
    for p = t.head to t.tail - 1 do
      buf.(p land mask) <- t.buf.(p land t.mask)
    done;
    t.buf <- buf;
    t.mask <- mask

  let reserve t ~nh:n =
    let len = header_base + n in
    if t.tail - t.head + len > t.mask + 1 then grow t len;
    let pos = t.tail in
    t.tail <- pos + len;
    t.count <- t.count + 1;
    t.buf.((pos + nh) land t.mask) <- n;
    pos

  let set t pos k v = t.buf.((pos + k) land t.mask) <- v
  let get t pos k = t.buf.((pos + k) land t.mask)

  let push t ~due:d ~aux:a ~fseq:f ~dst:ds ~inject:i ~hops:h ~time:tm ~port:p src ~off ~n =
    let pos = reserve t ~nh:n in
    let buf = t.buf and mask = t.mask in
    buf.((pos + due) land mask) <- d;
    buf.((pos + aux) land mask) <- a;
    buf.((pos + fseq) land mask) <- f;
    buf.((pos + dst) land mask) <- ds;
    buf.((pos + inject) land mask) <- i;
    buf.((pos + hops) land mask) <- h;
    buf.((pos + time) land mask) <- tm;
    buf.((pos + port) land mask) <- p;
    for j = 0 to n - 1 do
      buf.((pos + header_base + j) land mask) <- src.(off + j)
    done

  let head t = t.head

  let headers t pos =
    let n = get t pos nh in
    let a = Array.make n 0 in
    for j = 0 to n - 1 do
      a.(j) <- get t pos (header_base + j)
    done;
    a

  let pop t =
    t.head <- t.head + header_base + get t t.head nh;
    t.count <- t.count - 1;
    if t.count = 0 then clear t

  let iter t f =
    let pos = ref t.head in
    for _ = 1 to t.count do
      f !pos;
      pos := !pos + header_base + get t !pos nh
    done
end

module Table = struct
  let fseq = 0
  let dst = 1
  let inject = 2
  let hops = 3
  let stride = 4

  (* Slot [seq land mask] holds [seq] for [base <= seq < next].  Every
     slot without a live entry has [dst = -1]: a fresh array, a removal,
     a growth (which copies only live entries) and a clear all keep
     that, so the window can move over any slot without rewriting it. *)
  type t = {
    mutable data : int array;
    mutable mask : int;
    mutable base : int;
    mutable next : int;
    mutable live : int;
  }

  let create () = { data = [||]; mask = -1; base = 0; next = 0; live = 0 }
  let length t = t.live
  let capacity t = t.mask + 1
  let slot t seq = (seq land t.mask) * stride

  let clear t =
    for s = t.base to t.next - 1 do
      t.data.(slot t s + dst) <- -1
    done;
    t.base <- 0;
    t.next <- 0;
    t.live <- 0

  let grow t span =
    let cap = ref (max 8 (capacity t)) in
    while !cap < span do
      cap := 2 * !cap
    done;
    let data = Array.make (!cap * stride) (-1) and mask = !cap - 1 in
    for s = t.base to t.next - 1 do
      let i = slot t s in
      if t.data.(i + dst) >= 0 then Array.blit t.data i data ((s land mask) * stride) stride
    done;
    t.data <- data;
    t.mask <- mask

  let reserve t ~span = if span > capacity t then grow t span

  let add t seq ~fseq:f ~dst:d ~inject:i ~hops:h =
    if seq < t.next || d < 0 then invalid_arg "Flat.Table.add";
    (* An empty window restarts at [seq]: every slot is free. *)
    if t.live = 0 then t.base <- seq;
    if seq - t.base >= capacity t then grow t (seq - t.base + 1);
    let j = slot t seq in
    t.data.(j + fseq) <- f;
    t.data.(j + dst) <- d;
    t.data.(j + inject) <- i;
    t.data.(j + hops) <- h;
    t.next <- seq + 1;
    t.live <- t.live + 1

  let find t seq =
    if seq < t.base || seq >= t.next then -1
    else
      let j = slot t seq in
      if t.data.(j + dst) < 0 then -1 else j

  let get t j k = t.data.(j + k)

  (* Freeing the window's oldest entry moves [base] to the next live
     one; each seq is passed over once, so this is O(1) amortized. *)
  let remove_slot t j =
    t.data.(j + dst) <- -1;
    t.live <- t.live - 1;
    if t.live = 0 then t.base <- t.next
    else
      while t.data.(slot t t.base + dst) < 0 do
        t.base <- t.base + 1
      done

  let remove t seq =
    let j = find t seq in
    if j >= 0 then remove_slot t j

  let iter t f =
    for s = t.base to t.next - 1 do
      let j = slot t s in
      if t.data.(j + dst) >= 0 then f s j
    done
end
