module Machine = Mp5_banzai.Machine
module Rng = Mp5_util.Rng
module Psource = Mp5_workload.Packet_source

type spec = {
  topo : Topology.t;
  n_packets : int;
  n_fields : int;
  dst_field : int;
  per_cycle : int;
  index_fields : int list;
  reg_size : int;
  seed : int;
}

let default_spec topo =
  {
    topo;
    n_packets = 1000;
    n_fields = 4;
    dst_field = 0;
    per_cycle = max 1 (Topology.n_hosts topo / 2);
    index_fields = [];
    reg_size = 512;
    seed = 42;
  }

(* One packet per pull, constant memory.  Arrival times are
   nondecreasing ([per_cycle] packets per cycle), [port] is the source
   host (its uplink carries the packet in), and the dst field names a
   uniformly random host other than the source (any other host when the
   fabric has one host, which routes to itself). *)
let source spec =
  if spec.n_packets <= 0 then invalid_arg "Traffic.source: n_packets must be positive";
  if spec.per_cycle <= 0 then invalid_arg "Traffic.source: per_cycle must be positive";
  if spec.dst_field < 0 || spec.dst_field >= spec.n_fields then
    invalid_arg "Traffic.source: dst_field out of range";
  let n_hosts = Topology.n_hosts spec.topo in
  let is_index = Array.init spec.n_fields (fun f -> List.mem f spec.index_fields) in
  let rng = Rng.create spec.seed in
  let i = ref 0 in
  Psource.of_pull ~total:spec.n_packets (fun () ->
      if !i >= spec.n_packets then None
      else begin
        let time = !i / spec.per_cycle in
        let src = Rng.int rng n_hosts in
        let dst =
          if n_hosts = 1 then 0
          else begin
            let d = Rng.int rng (n_hosts - 1) in
            if d >= src then d + 1 else d
          end
        in
        (* Field order is draw order. *)
        let headers = Array.make spec.n_fields 0 in
        for f = 0 to spec.n_fields - 1 do
          headers.(f) <-
            (if f = spec.dst_field then dst
             else if is_index.(f) then Rng.int rng spec.reg_size
             else Rng.int rng 1024)
        done;
        incr i;
        Some { Machine.time; port = src; headers }
      end)

let dst_of_input spec (input : Machine.input) =
  if spec.dst_field < Array.length input.Machine.headers then
    input.Machine.headers.(spec.dst_field)
  else -1
