type t = int array array

let create (config : Config.t) =
  Array.map (fun (r : Config.reg) -> Array.copy r.init) config.regs

let get t ~reg ~idx = t.(reg).(idx)
let set t ~reg ~idx v = t.(reg).(idx) <- v
let[@inline] array t ~reg = t.(reg)

let copy t = Array.map Array.copy t

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x = y) (Array.map Array.to_list a) (Array.map Array.to_list b)

let diff a b =
  let out = ref [] in
  Array.iteri
    (fun r ra ->
      Array.iteri (fun i v -> if v <> b.(r).(i) then out := (r, i, v, b.(r).(i)) :: !out) ra)
    a;
  List.rev !out
