let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: the generic version goes
     through the polymorphic runtime path on every element and orders
     nan inconsistently against itself. *)
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

let summarize xs =
  if Array.length xs = 0 then
    (* Total on empty input: an experiment with zero samples reports a
       zero summary instead of blowing up the whole bench run. *)
    { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p99 = 0.0 }
  else
    let lo, hi = min_max xs in
    {
      n = Array.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = lo;
      max = hi;
      p50 = percentile xs 50.0;
      p99 = percentile xs 99.0;
    }

type counter = { mutable cnt : int; mutable sum : float; mutable mx : float }

let counter () = { cnt = 0; sum = 0.0; mx = 0.0 }

let add c x =
  c.cnt <- c.cnt + 1;
  c.sum <- c.sum +. x;
  if x > c.mx then c.mx <- x

let count c = c.cnt
let total c = c.sum
let maximum c = c.mx
