type discrete = {
  prob : float array;      (* alias-method probability table *)
  alias : int array;
}

(* Walker's alias method: O(n) setup, O(1) sampling. *)
let discrete weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.discrete: empty weights";
  Array.iter (fun w -> if w < 0.0 then invalid_arg "Dist.discrete: negative weight") weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.discrete: weights sum to zero";
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Queue.create () in
  let large = Queue.create () in
  Array.iteri (fun i p -> if p < 1.0 then Queue.add i small else Queue.add i large) scaled;
  while not (Queue.is_empty small) && not (Queue.is_empty large) do
    let s = Queue.pop small in
    let l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then Queue.add l small else Queue.add l large
  done;
  (* Remaining entries keep prob = 1.0 (self-alias). *)
  { prob; alias }

let uniform_discrete n = discrete (Array.make n 1.0)

let skewed ~n ~hot_fraction ~hot_mass =
  if n <= 0 then invalid_arg "Dist.skewed: n must be positive";
  if hot_fraction <= 0.0 || hot_fraction > 1.0 then invalid_arg "Dist.skewed: hot_fraction";
  if hot_mass < 0.0 || hot_mass > 1.0 then invalid_arg "Dist.skewed: hot_mass";
  let hot = max 1 (int_of_float (hot_fraction *. float_of_int n)) in
  let cold = n - hot in
  let weights =
    Array.init n (fun i ->
        if i < hot then hot_mass /. float_of_int hot
        else if cold = 0 then 0.0
        else (1.0 -. hot_mass) /. float_of_int cold)
  in
  (* Degenerate case: everything hot. *)
  if cold = 0 then uniform_discrete n else discrete weights

let sample rng d =
  let n = Array.length d.prob in
  let i = Rng.int rng n in
  if Rng.float rng 1.0 < d.prob.(i) then i else d.alias.(i)

type empirical = { knots : (float * float) array }

let empirical knots =
  if Array.length knots = 0 then invalid_arg "Dist.empirical: no knots";
  let _, last_cdf = knots.(Array.length knots - 1) in
  if abs_float (last_cdf -. 1.0) > 1e-9 then
    invalid_arg "Dist.empirical: last cdf must be 1.0";
  let prev = ref neg_infinity in
  Array.iter
    (fun (_, c) ->
      if c < !prev then invalid_arg "Dist.empirical: cdf not monotonic";
      prev := c)
    knots;
  { knots }

let sample_empirical rng e =
  let u = Rng.float rng 1.0 in
  let knots = e.knots in
  let n = Array.length knots in
  let rec search lo hi =
    (* smallest index whose cdf >= u *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let _, c = knots.(mid) in
      if c >= u then search lo mid else search (mid + 1) hi
  in
  let i = search 0 (n - 1) in
  let v_hi, c_hi = knots.(i) in
  if i = 0 then v_hi
  else
    let v_lo, c_lo = knots.(i - 1) in
    if c_hi -. c_lo <= 0.0 then v_hi
    else v_lo +. ((u -. c_lo) /. (c_hi -. c_lo)) *. (v_hi -. v_lo)

let mean_empirical e =
  let knots = e.knots in
  let n = Array.length knots in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let v_hi, c_hi = knots.(i) in
    let v_lo, c_lo = if i = 0 then (v_hi, 0.0) else knots.(i - 1) in
    acc := !acc +. ((c_hi -. c_lo) *. (v_lo +. v_hi) /. 2.0)
  done;
  !acc

type bimodal = { lo : int; hi : int; lo_prob : float }

let bimodal ~lo ~hi ~lo_prob =
  if lo <= 0 || hi < lo then invalid_arg "Dist.bimodal: bad modes";
  if lo_prob < 0.0 || lo_prob > 1.0 then invalid_arg "Dist.bimodal: lo_prob";
  { lo; hi; lo_prob }

let sample_bimodal rng b = if Rng.float rng 1.0 < b.lo_prob then b.lo else b.hi

let mean_bimodal b =
  (b.lo_prob *. float_of_int b.lo) +. ((1.0 -. b.lo_prob) *. float_of_int b.hi)
