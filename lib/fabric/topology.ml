module Hashing = Mp5_util.Hashing

type endpoint = Host of int | Switch of int

type edge = { a : endpoint; b : endpoint; e_delay : int }

type link = { l_src : endpoint; l_dst : endpoint; l_delay : int }

type t = {
  n_switches : int;
  n_hosts : int;
  links : link array;
  host_sw : int array;
  host_up : int array;
  host_down : int array;
  out_links : int array array;
  sw_peers : (int * int) array array;
}

let n_switches t = t.n_switches
let n_hosts t = t.n_hosts
let n_links t = Array.length t.links
let link t i = t.links.(i)
let host_switch t h = t.host_sw.(h)
let host_uplink t h = t.host_up.(h)
let host_downlink t h = t.host_down.(h)
let out_links t s = t.out_links.(s)
let switch_peers t s = t.sw_peers.(s)

let pp_endpoint ppf = function
  | Host h -> Format.fprintf ppf "h%d" h
  | Switch s -> Format.fprintf ppf "s%d" s

let edge ?(delay = 0) a b = { a; b; e_delay = delay }

(* --- validation + construction ---

   Undirected edges become directed link pairs (edge [i] is links [2i]
   and [2i+1]), so link ids follow edge order.  Constructors list host
   edges in ascending host order, which makes host-uplink ids ascend
   with host ids — the fabric driver delivers due packets in link-id
   order, so this is what aligns per-cycle host admission order with
   the (time, port)-sorted trace order a plain [Sim.run] sees. *)

let make ~n_switches ~n_hosts edges =
  let err fmt = Format.kasprintf (fun m -> Error ("topology: " ^ m)) fmt in
  let check_endpoint = function
    | Host h when h < 0 || h >= n_hosts ->
        Some (Format.asprintf "host h%d out of range (%d hosts)" h n_hosts)
    | Switch s when s < 0 || s >= n_switches ->
        Some (Format.asprintf "switch s%d out of range (%d switches)" s n_switches)
    | _ -> None
  in
  if n_switches <= 0 then err "need at least one switch"
  else if n_hosts <= 0 then err "need at least one host"
  else begin
    let host_deg = Array.make n_hosts 0 in
    let seen = Hashtbl.create 64 in
    let key a b =
      let code = function Host h -> 2 * h | Switch s -> (2 * s) + 1 in
      let x = code a and y = code b in
      if x < y then (x, y) else (y, x)
    in
    let rec check i = function
      | [] -> Ok ()
      | { a; b; e_delay } :: rest -> (
          let where = Format.asprintf "edge %d (%a-%a)" i pp_endpoint a pp_endpoint b in
          match (check_endpoint a, check_endpoint b) with
          | Some m, _ | _, Some m -> err "%s: %s" where m
          | None, None ->
              if a = b then err "%s: self-loop" where
              else if e_delay < 0 then err "%s: negative delay" where
              else begin
                match (a, b) with
                | Host _, Host _ -> err "%s: hosts connect to switches, not hosts" where
                | _ ->
                    (match a with Host h -> host_deg.(h) <- host_deg.(h) + 1 | _ -> ());
                    (match b with Host h -> host_deg.(h) <- host_deg.(h) + 1 | _ -> ());
                    if Hashtbl.mem seen (key a b) then err "%s: duplicate edge" where
                    else begin
                      Hashtbl.add seen (key a b) ();
                      check (i + 1) rest
                    end
              end)
    in
    match check 0 edges with
    | Error _ as e -> e
    | Ok () -> (
        let bad_deg = ref None in
        Array.iteri
          (fun h d -> if d <> 1 && !bad_deg = None then bad_deg := Some (h, d))
          host_deg;
        match !bad_deg with
        | Some (h, d) ->
            err "host h%d attaches to %d switches; every host needs exactly one" h d
        | None ->
            let links =
              List.concat_map
                (fun { a; b; e_delay } ->
                  [
                    { l_src = a; l_dst = b; l_delay = e_delay };
                    { l_src = b; l_dst = a; l_delay = e_delay };
                  ])
                edges
              |> Array.of_list
            in
            let host_sw = Array.make n_hosts (-1) in
            let host_up = Array.make n_hosts (-1) in
            let host_down = Array.make n_hosts (-1) in
            let out = Array.make n_switches [] in
            let peers = Array.make n_switches [] in
            Array.iteri
              (fun i l ->
                match (l.l_src, l.l_dst) with
                | Host h, Switch s ->
                    host_sw.(h) <- s;
                    host_up.(h) <- i
                | Switch s, Host h ->
                    host_down.(h) <- i;
                    out.(s) <- i :: out.(s)
                | Switch s, Switch s' ->
                    out.(s) <- i :: out.(s);
                    peers.(s) <- (s', i) :: peers.(s)
                | Host _, Host _ -> assert false)
              links;
            let out_links = Array.map (fun l -> Array.of_list (List.rev l)) out in
            let sw_peers = Array.map (fun l -> Array.of_list (List.rev l)) peers in
            (* All hosts mutually reachable: one BFS over the switch
               graph from the first host's switch must reach every
               switch that has a host on it. *)
            let reach = Array.make n_switches false in
            let q = Queue.create () in
            reach.(host_sw.(0)) <- true;
            Queue.push host_sw.(0) q;
            while not (Queue.is_empty q) do
              let s = Queue.pop q in
              Array.iter
                (fun (s', _) ->
                  if not reach.(s') then begin
                    reach.(s') <- true;
                    Queue.push s' q
                  end)
                sw_peers.(s)
            done;
            let unreachable = ref None in
            Array.iteri
              (fun h s -> if (not reach.(s)) && !unreachable = None then unreachable := Some h)
              host_sw;
            (match !unreachable with
            | Some h ->
                err "host h%d (on s%d) unreachable from h0 (on s%d)" h host_sw.(h)
                  host_sw.(0)
            | None ->
                Ok
                  {
                    n_switches;
                    n_hosts;
                    links;
                    host_sw;
                    host_up;
                    host_down;
                    out_links;
                    sw_peers;
                  }))
  end

let make_exn ~n_switches ~n_hosts edges =
  match make ~n_switches ~n_hosts edges with
  | Ok t -> t
  | Error msg -> invalid_arg msg

(* --- stock shapes --- *)

(* Switch-switch edges first, then host edges in ascending host order
   (see [make]'s ordering note).  Host links carry delay 0 so a
   one-switch fabric admits packets at exactly their trace time. *)

let line ~switches ~hosts_per_sw ~delay =
  if switches <= 0 || hosts_per_sw <= 0 || delay < 0 then
    invalid_arg "Topology.line: switches and hosts must be positive, delay >= 0";
  let trunk =
    List.init (switches - 1) (fun i -> edge ~delay (Switch i) (Switch (i + 1)))
  in
  let n_hosts = switches * hosts_per_sw in
  let hosts = List.init n_hosts (fun h -> edge (Host h) (Switch (h / hosts_per_sw))) in
  make_exn ~n_switches:switches ~n_hosts (trunk @ hosts)

let tree ~depth ~fanout ~hosts_per_leaf ~delay =
  if depth < 0 || fanout <= 0 || hosts_per_leaf <= 0 || delay < 0 then
    invalid_arg "Topology.tree: bad shape";
  (* Complete [fanout]-ary tree, switches numbered level order from the
     root; hosts hang off the leaves. *)
  let rec level_size d = if d = 0 then 1 else fanout * level_size (d - 1) in
  let n_switches = ref 0 in
  for d = 0 to depth do
    n_switches := !n_switches + level_size d
  done;
  let n_switches = !n_switches in
  let first_leaf = n_switches - level_size depth in
  let trunk = ref [] in
  (* parent of switch s (> 0) in level order: (s - 1) / fanout *)
  for s = n_switches - 1 downto 1 do
    trunk := edge ~delay (Switch ((s - 1) / fanout)) (Switch s) :: !trunk
  done;
  let n_leaves = level_size depth in
  let n_hosts = n_leaves * hosts_per_leaf in
  let hosts =
    List.init n_hosts (fun h -> edge (Host h) (Switch (first_leaf + (h / hosts_per_leaf))))
  in
  make_exn ~n_switches ~n_hosts (!trunk @ hosts)

let leaf_spine ~leaves ~spines ~hosts_per_leaf ~delay =
  if leaves <= 0 || spines <= 0 || hosts_per_leaf <= 0 || delay < 0 then
    invalid_arg "Topology.leaf_spine: bad shape";
  (* Leaves are switches 0..leaves-1, spines follow; every leaf connects
     to every spine. *)
  let trunk = ref [] in
  for l = leaves - 1 downto 0 do
    for s = spines - 1 downto 0 do
      trunk := edge ~delay (Switch l) (Switch (leaves + s)) :: !trunk
    done
  done;
  let n_hosts = leaves * hosts_per_leaf in
  let hosts = List.init n_hosts (fun h -> edge (Host h) (Switch (h / hosts_per_leaf))) in
  make_exn ~n_switches:(leaves + spines) ~n_hosts (!trunk @ hosts)

let fat_tree ~k ~delay =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even and >= 2";
  if delay < 0 then invalid_arg "Topology.fat_tree: delay must be >= 0";
  (* Classic k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
     switches, (k/2)^2 cores, k^3/4 hosts.  Numbering: edges first
     (pod-major), then aggregations (pod-major), then cores. *)
  let h = k / 2 in
  let n_edge = k * h and n_agg = k * h in
  let n_core = h * h in
  let n_switches = n_edge + n_agg + n_core in
  let edge_id pod i = (pod * h) + i in
  let agg_id pod i = n_edge + (pod * h) + i in
  let core_id i j = n_edge + n_agg + (i * h) + j in
  let trunk = ref [] in
  for pod = k - 1 downto 0 do
    for e = h - 1 downto 0 do
      for a = h - 1 downto 0 do
        trunk := edge ~delay (Switch (edge_id pod e)) (Switch (agg_id pod a)) :: !trunk
      done
    done;
    for a = h - 1 downto 0 do
      for j = h - 1 downto 0 do
        trunk := edge ~delay (Switch (agg_id pod a)) (Switch (core_id a j)) :: !trunk
      done
    done
  done;
  let n_hosts = n_edge * h in
  let hosts = List.init n_hosts (fun x -> edge (Host x) (Switch (x / h))) in
  make_exn ~n_switches ~n_hosts (!trunk @ hosts)

(* --- spec strings --- *)

(* The CLI form: "shape:args" with ','-separated key=value options.
   Errors are positioned at the offending token. *)

let of_spec spec =
  let err fmt = Format.kasprintf (fun m -> Error (Format.asprintf "topo spec %S: %s" spec m)) fmt in
  let parse_kvs ?(positional = []) tokens =
    (* Positional names are consumed in order by bare values; key=value
       tokens may appear anywhere. *)
    let kvs = ref [] in
    let pos = ref positional in
    let rec go i = function
      | [] -> Ok ()
      | tok :: rest -> (
          match String.index_opt tok '=' with
          | Some e ->
              kvs := (String.sub tok 0 e, String.sub tok (e + 1) (String.length tok - e - 1)) :: !kvs;
              go (i + 1) rest
          | None -> (
              match !pos with
              | name :: more ->
                  pos := more;
                  kvs := (name, tok) :: !kvs;
                  go (i + 1) rest
              | [] -> Error (Printf.sprintf "unexpected argument %S (position %d)" tok i)))
    in
    match go 0 tokens with Ok () -> Ok !kvs | Error m -> Error m
  in
  let int_opt kvs name default =
    match List.assoc_opt name kvs with
    | None -> Ok default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad %s=%S (want an integer)" name v))
  in
  let with_kvs body tokens ~positional ~known =
    match parse_kvs ~positional tokens with
    | Error m -> err "%s" m
    | Ok kvs -> (
        match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
        | Some (k, _) -> err "unknown option %S (known: %s)" k (String.concat ", " known)
        | None -> (
            match body kvs with
            | Ok t -> Ok t
            | Error m -> err "%s" m
            | exception Invalid_argument m -> err "%s" m))
  in
  match String.index_opt spec ':' with
  | None -> err "want shape:args, e.g. line:2 or leafspine:2x2,hosts=2"
  | Some i -> (
      let shape = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let tokens = String.split_on_char ',' rest |> List.filter (fun s -> s <> "") in
      match shape with
      | "line" ->
          with_kvs ~positional:[ "switches" ] ~known:[ "switches"; "hosts"; "delay" ]
            (fun kvs ->
              let ( let* ) = Result.bind in
              let* switches = int_opt kvs "switches" 2 in
              let* hosts = int_opt kvs "hosts" 1 in
              let* delay = int_opt kvs "delay" 1 in
              Ok (line ~switches ~hosts_per_sw:hosts ~delay))
            tokens
      | "tree" ->
          with_kvs ~positional:[] ~known:[ "depth"; "fanout"; "hosts"; "delay" ]
            (fun kvs ->
              let ( let* ) = Result.bind in
              let* depth = int_opt kvs "depth" 1 in
              let* fanout = int_opt kvs "fanout" 2 in
              let* hosts = int_opt kvs "hosts" 1 in
              let* delay = int_opt kvs "delay" 1 in
              Ok (tree ~depth ~fanout ~hosts_per_leaf:hosts ~delay))
            tokens
      | "fattree" ->
          with_kvs ~positional:[ "k" ] ~known:[ "k"; "delay" ]
            (fun kvs ->
              let ( let* ) = Result.bind in
              let* k = int_opt kvs "k" 4 in
              let* delay = int_opt kvs "delay" 1 in
              Ok (fat_tree ~k ~delay))
            tokens
      | "leafspine" -> (
          (* First token may be the "LxS" shape. *)
          let shape_tok, tokens =
            match tokens with
            | tok :: rest when not (String.contains tok '=') -> (Some tok, rest)
            | _ -> (None, tokens)
          in
          let shape_dims =
            match shape_tok with
            | None -> Ok (2, 2)
            | Some tok -> (
                match String.index_opt tok 'x' with
                | Some x -> (
                    let l = String.sub tok 0 x in
                    let s = String.sub tok (x + 1) (String.length tok - x - 1) in
                    match (int_of_string_opt l, int_of_string_opt s) with
                    | Some l, Some s -> Ok (l, s)
                    | _ -> Error (Printf.sprintf "bad shape %S (want LEAVESxSPINES)" tok))
                | None -> Error (Printf.sprintf "bad shape %S (want LEAVESxSPINES)" tok))
          in
          match shape_dims with
          | Error m -> err "%s" m
          | Ok (leaves, spines) ->
              with_kvs ~positional:[] ~known:[ "hosts"; "delay" ]
                (fun kvs ->
                  let ( let* ) = Result.bind in
                  let* hosts = int_opt kvs "hosts" 1 in
                  let* delay = int_opt kvs "delay" 1 in
                  Ok (leaf_spine ~leaves ~spines ~hosts_per_leaf:hosts ~delay))
                tokens)
      | "edges" -> (
          (* "edges:h0-s0;s0-s1:2;s1-h1" — ';'-separated endpoint pairs
             with an optional ":delay" suffix.  Host/switch counts are
             inferred from the highest ids used. *)
          let parse_endpoint tok =
            if String.length tok < 2 then Error (Printf.sprintf "bad endpoint %S" tok)
            else
              match (tok.[0], int_of_string_opt (String.sub tok 1 (String.length tok - 1))) with
              | 'h', Some n when n >= 0 -> Ok (Host n)
              | 's', Some n when n >= 0 -> Ok (Switch n)
              | _ -> Error (Printf.sprintf "bad endpoint %S (want hN or sN)" tok)
          in
          let parse_edge i tok =
            let fail m = Error (Printf.sprintf "edge %d %S: %s" i tok m) in
            match String.split_on_char '-' tok with
            | [ a; b ] -> (
                let b, delay =
                  match String.index_opt b ':' with
                  | Some c -> (
                      let d = String.sub b (c + 1) (String.length b - c - 1) in
                      match int_of_string_opt d with
                      | Some d -> (String.sub b 0 c, Some d)
                      | None -> (String.sub b 0 c, Some (-1)))
                  | None -> (b, None)
                in
                match (parse_endpoint a, parse_endpoint b, delay) with
                | Ok _, Ok _, Some d when d < 0 -> fail "bad delay"
                | Ok a, Ok b, d -> Ok (edge ?delay:d a b)
                | Error m, _, _ | _, Error m, _ -> fail m)
            | _ -> fail "want A-B or A-B:delay"
          in
          let rec collect i acc = function
            | [] -> Ok (List.rev acc)
            | tok :: rest -> (
                match parse_edge i tok with
                | Ok e -> collect (i + 1) (e :: acc) rest
                | Error m -> Error m)
          in
          let tokens = String.split_on_char ';' rest |> List.filter (fun s -> s <> "") in
          match collect 0 [] tokens with
          | Error m -> err "%s" m
          | Ok [] -> err "no edges"
          | Ok edges -> (
              let n_hosts = ref 0 and n_switches = ref 0 in
              List.iter
                (fun { a; b; _ } ->
                  List.iter
                    (function
                      | Host h -> n_hosts := max !n_hosts (h + 1)
                      | Switch s -> n_switches := max !n_switches (s + 1))
                    [ a; b ])
                edges;
              match make ~n_switches:!n_switches ~n_hosts:!n_hosts edges with
              | Ok t -> Ok t
              | Error m -> err "%s" m))
      | s -> err "unknown shape %S (known: line, tree, fattree, leafspine, edges)" s)

(* --- printing + digest --- *)

let pp ppf t =
  Format.fprintf ppf "switches: %d@\nhosts: %d@\nlinks: %d@\n" t.n_switches t.n_hosts
    (Array.length t.links);
  Array.iteri
    (fun h s -> Format.fprintf ppf "  h%d on s%d (up l%d, down l%d)@\n" h s t.host_up.(h) t.host_down.(h))
    t.host_sw;
  Array.iteri
    (fun i l ->
      Format.fprintf ppf "  l%d: %a -> %a delay=%d@\n" i pp_endpoint l.l_src pp_endpoint
        l.l_dst l.l_delay)
    t.links

let digest t =
  let st = Hashing.start () in
  let feed = Hashing.feed st in
  let feed_ep = function Host h -> feed (2 * h) | Switch s -> feed ((2 * s) + 1) in
  feed t.n_switches;
  feed t.n_hosts;
  feed (Array.length t.links);
  Array.iter
    (fun l ->
      feed_ep l.l_src;
      feed_ep l.l_dst;
      feed l.l_delay)
    t.links;
  Hashing.value st
