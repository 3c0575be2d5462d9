type t = {
  k : int;
  reg : int;
  sharded : bool;
  pipelines : int array;
  counts : int array;
  inflights : int array;
  (* per-pipeline sums of [counts], maintained incrementally so the remap
     heuristic's load reads are O(k) instead of an O(size) scan *)
  loads : int array;
}

let create ~k ~reg ~size ~sharded ~pinned_to ~init =
  if k <= 0 then invalid_arg "Index_map.create: k must be positive";
  let pipelines =
    if not sharded then Array.make size pinned_to
    else
      match init with
      | `Round_robin -> Array.init size (fun i -> i mod k)
      | `Random rng -> Array.init size (fun _ -> Mp5_util.Rng.int rng k)
      | `Blocked ->
          let block = (size + k - 1) / k in
          Array.init size (fun i -> i / block)
  in
  {
    k;
    reg;
    sharded;
    pipelines;
    counts = Array.make size 0;
    inflights = Array.make size 0;
    loads = Array.make k 0;
  }

let k t = t.k
let size t = Array.length t.pipelines
let sharded t = t.sharded
let pipeline_of t cell = t.pipelines.(cell)

let note_access t cell =
  t.counts.(cell) <- t.counts.(cell) + 1;
  let p = t.pipelines.(cell) in
  t.loads.(p) <- t.loads.(p) + 1
let incr_inflight t cell = t.inflights.(cell) <- t.inflights.(cell) + 1

let decr_inflight t cell =
  assert (t.inflights.(cell) > 0);
  t.inflights.(cell) <- t.inflights.(cell) - 1

let inflight t cell = t.inflights.(cell)
let access_count t cell = t.counts.(cell)

let per_pipeline_load t = Array.copy t.loads

let reset_counts t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.loads 0 t.k 0

let move t ~cell ~to_ =
  if not t.sharded then invalid_arg "Index_map.move: array is pinned";
  let c = t.counts.(cell) in
  let from_ = t.pipelines.(cell) in
  t.loads.(from_) <- t.loads.(from_) - c;
  t.loads.(to_) <- t.loads.(to_) + c;
  t.pipelines.(cell) <- to_

let w_state w t =
  Mp5_util.Binio.w_int_array w t.pipelines;
  Mp5_util.Binio.w_int_array w t.counts;
  Mp5_util.Binio.w_int_array w t.inflights

let r_state r t =
  let mismatch = "snapshot: index map size does not match the program" in
  Mp5_util.Binio.r_int_array_into r t.pipelines ~mismatch;
  Mp5_util.Binio.r_int_array_into r t.counts ~mismatch;
  Mp5_util.Binio.r_int_array_into r t.inflights ~mismatch;
  (* [loads] is the per-pipeline aggregation of [counts]; recompute it
     rather than trusting a serialized copy. *)
  Array.fill t.loads 0 t.k 0;
  for cell = 0 to Array.length t.pipelines - 1 do
    let p = t.pipelines.(cell) in
    t.loads.(p) <- t.loads.(p) + t.counts.(cell)
  done

let cells_of_pipeline t p =
  let out = ref [] in
  Array.iteri (fun cell q -> if q = p then out := cell :: !out) t.pipelines;
  List.rev !out
