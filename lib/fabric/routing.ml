module Hashing = Mp5_util.Hashing

type rule = { pfx : int; len : int; port : int }

type policy = { bits : int; rules : rule list array }

let bits_for n_hosts =
  let b = ref 1 in
  while 1 lsl !b < n_hosts do
    incr b
  done;
  !b

(* Dense next-hop table: [switch -> host -> egress port], -1 = no route.
   Next hops are shortest-path with ties broken toward the smallest
   out-link id, so the table — and everything compiled from it — is a
   pure function of the topology. *)
let next_hops topo =
  let n_sw = Topology.n_switches topo in
  let n_hosts = Topology.n_hosts topo in
  (* dist.(s).(s') by BFS from each switch over the switch graph *)
  let dist = Array.make_matrix n_sw n_sw max_int in
  for s = 0 to n_sw - 1 do
    let d = dist.(s) in
    d.(s) <- 0;
    let q = Queue.create () in
    Queue.push s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iter
        (fun (v, _) ->
          if d.(v) = max_int then begin
            d.(v) <- d.(u) + 1;
            Queue.push v q
          end)
        (Topology.switch_peers topo u)
    done
  done;
  let table = Array.make_matrix n_sw n_hosts (-1) in
  for s = 0 to n_sw - 1 do
    let out = Topology.out_links topo s in
    let port_of_link l =
      let p = ref (-1) in
      Array.iteri (fun i l' -> if l' = l then p := i) out;
      !p
    in
    for h = 0 to n_hosts - 1 do
      let hs = Topology.host_switch topo h in
      if hs = s then table.(s).(h) <- port_of_link (Topology.host_downlink topo h)
      else begin
        let best = ref (-1) and best_d = ref max_int in
        Array.iter
          (fun (peer, l) ->
            if dist.(peer).(hs) < max_int && dist.(peer).(hs) + 1 < !best_d then begin
              best_d := dist.(peer).(hs) + 1;
              best := port_of_link l
            end)
          (Topology.switch_peers topo s);
        table.(s).(h) <- !best
      end
    done
  done;
  table

(* Collapse one switch's dense host->port row into prefix rules by
   recursive binary splitting: a range whose live hosts all share a port
   becomes one rule, mixed ranges split.  Host ids >= n_hosts inside a
   range are don't-cares. *)
let compress_row ~bits ~n_hosts row =
  let rec go pfx len =
    let lo = pfx lsl (bits - len) in
    let hi = min n_hosts ((pfx + 1) lsl (bits - len)) in
    if lo >= hi then []
    else begin
      let port = row.(lo) in
      let uniform = ref true in
      for h = lo + 1 to hi - 1 do
        if row.(h) <> port then uniform := false
      done;
      if !uniform then if port < 0 then [] else [ { pfx; len; port } ]
      else go (2 * pfx) (len + 1) @ go ((2 * pfx) + 1) (len + 1)
    end
  in
  go 0 0

let shortest_paths topo =
  let bits = bits_for (Topology.n_hosts topo) in
  let n_hosts = Topology.n_hosts topo in
  let table = next_hops topo in
  { bits; rules = Array.map (compress_row ~bits ~n_hosts) table }

(* Longest-prefix match, expanded to a dense forwarding table consulted
   per exit: rules applied shortest prefix first so longer prefixes
   overwrite. *)
let compile policy topo =
  let n_hosts = Topology.n_hosts topo in
  Array.map
    (fun rules ->
      let row = Array.make n_hosts (-1) in
      let sorted = List.stable_sort (fun a b -> compare a.len b.len) rules in
      List.iter
        (fun { pfx; len; port } ->
          let lo = pfx lsl (policy.bits - len) in
          let hi = min n_hosts ((pfx + 1) lsl (policy.bits - len)) in
          for h = lo to hi - 1 do
            row.(h) <- port
          done)
        sorted;
      row)
    policy.rules

let pp ppf policy =
  Format.fprintf ppf "routing: %d bits@\n" policy.bits;
  Array.iteri
    (fun s rules ->
      Format.fprintf ppf "  s%d:" s;
      if rules = [] then Format.fprintf ppf " (no routes)"
      else
        List.iter
          (fun { pfx; len; port } -> Format.fprintf ppf " %d/%d->p%d" pfx len port)
          rules;
      Format.fprintf ppf "@\n")
    policy.rules

let digest policy =
  let st = Hashing.start () in
  let feed = Hashing.feed st in
  feed policy.bits;
  Array.iter
    (fun rules ->
      feed (List.length rules);
      List.iter
        (fun { pfx; len; port } ->
          feed pfx;
          feed len;
          feed port)
        rules)
    policy.rules;
  Hashing.value st
