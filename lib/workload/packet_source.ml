module Machine = Mp5_banzai.Machine

exception Error of string

(* A live source's backing store: a growable ring of variable-length
   entries [time port nh h0 .. h(nh-1)].  [head] and [tail] are absolute
   positions (the ring indexes with [p land mask]); an emptied ring
   restarts at 0. *)
type ring = {
  mutable buf : int array;
  mutable mask : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
}

(* The cursor: one packet buffer ([time], [port], [headers]) that [fill]
   writes in place.  [full] says the buffer holds the next, unconsumed
   packet; [ready] fills it, [advance] consumes it.  Once [fill] returns
   [false] the source is permanently exhausted ([eof]), so a producer is
   only ever asked once past its end.  A [live] source never latches
   [eof]: its ring can refill between fills (the fabric driver pushes
   inter-switch deliveries into a node's ring each cycle), so an empty
   fill means "nothing right now", not "nothing ever". *)
type t = {
  mutable time : int;
  mutable port : int;
  mutable headers : int array;
  mutable full : bool;
  mutable eof : bool;
  mutable consumed : int;
  mutable last_time : int;
  total : int option;
  fill : t -> bool;
  ring : ring;
  live : bool;
}

let make ?total ?(consumed = 0) ?(last_time = 0) ~live fill =
  {
    time = 0;
    port = 0;
    headers = [||];
    full = false;
    eof = false;
    consumed;
    last_time;
    total;
    fill;
    ring = { buf = [||]; mask = -1; head = 0; tail = 0; count = 0 };
    live;
  }

let of_fill ?total fill = make ?total ~live:false fill

let set t ~time ~port ~n =
  if Array.length t.headers <> n then t.headers <- Array.make n 0;
  t.time <- time;
  t.port <- port;
  t.headers

(* The buffer points at the array's own header arrays: nothing is
   copied, and readers never write the buffer. *)
let of_array a =
  let i = ref 0 in
  let n = Array.length a in
  of_fill ~total:n (fun t ->
      !i < n
      && begin
           let p = Array.unsafe_get a !i in
           incr i;
           t.time <- p.Machine.time;
           t.port <- p.Machine.port;
           t.headers <- p.Machine.headers;
           true
         end)

let ready t =
  t.full
  || ((not t.eof)
     &&
     if t.fill t then begin
       t.full <- true;
       true
     end
     else begin
       if not t.live then t.eof <- true;
       false
     end)

let time t = t.time
let port t = t.port
let headers t = t.headers

let advance t =
  if not t.full then invalid_arg "Packet_source.advance: no buffered packet";
  t.full <- false;
  t.consumed <- t.consumed + 1;
  t.last_time <- t.time

let next t =
  if ready t then begin
    let p = { Machine.time = t.time; port = t.port; headers = Array.copy t.headers } in
    advance t;
    Some p
  end
  else None

let consumed t = t.consumed
let total_hint t = t.total
let last_time t = t.last_time

(* --- live sources --- *)

let entry_base = 3

let ring_fill t =
  let r = t.ring in
  r.count > 0
  && begin
       let buf = r.buf and m = r.mask and p = r.head in
       let n = buf.((p + 2) land m) in
       let h = set t ~time:buf.(p land m) ~port:buf.((p + 1) land m) ~n in
       for j = 0 to n - 1 do
         h.(j) <- buf.((p + entry_base + j) land m)
       done;
       r.count <- r.count - 1;
       if r.count = 0 then begin
         r.head <- 0;
         r.tail <- 0
       end
       else r.head <- p + entry_base + n;
       true
     end

let ingress ?consumed ?last_time () = make ?consumed ?last_time ~live:true ring_fill

(* Double until [extra] more ints fit; every live int keeps its absolute
   position. *)
let grow r extra =
  let used = r.tail - r.head in
  let cap = ref (max 32 (2 * (r.mask + 1))) in
  while !cap < used + extra do
    cap := 2 * !cap
  done;
  let buf = Array.make !cap 0 and mask = !cap - 1 in
  for p = r.head to r.tail - 1 do
    buf.(p land mask) <- r.buf.(p land r.mask)
  done;
  r.buf <- buf;
  r.mask <- mask

let push t ~time ~port src ~off ~mask ~n =
  if not t.live then invalid_arg "Packet_source.push: not an ingress source";
  let r = t.ring in
  let len = entry_base + n in
  if r.tail - r.head + len > r.mask + 1 then grow r len;
  let buf = r.buf and m = r.mask and p = r.tail in
  buf.(p land m) <- time;
  buf.((p + 1) land m) <- port;
  buf.((p + 2) land m) <- n;
  for j = 0 to n - 1 do
    buf.((p + entry_base + j) land m) <- src.((off + j) land mask)
  done;
  r.tail <- p + len;
  r.count <- r.count + 1

let pending t = t.ring.count + if t.full then 1 else 0

let iter_pending t f =
  if t.full then f { Machine.time = t.time; port = t.port; headers = Array.copy t.headers };
  let r = t.ring in
  let p = ref r.head in
  for _ = 1 to r.count do
    let get k = r.buf.((!p + k) land r.mask) in
    let n = get 2 in
    f { Machine.time = get 0; port = get 1; headers = Array.init n (fun j -> get (entry_base + j)) };
    p := !p + entry_base + n
  done
