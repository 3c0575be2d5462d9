type config = {
  k : int;
  stages : int;
  header_bits : int;
  meta_bits : int;
  phantom_bits : int;
  fifo_depth : int;
}

let paper_config ~k ~stages =
  { k; stages; header_bits = 512; meta_bits = 64; phantom_bits = 48; fifo_depth = 8 }

type area_breakdown = {
  crossbar_mm2 : float;
  steering_mm2 : float;
  fifo_mm2 : float;
  total_mm2 : float;
}

(* Calibrated against Table 1 with the paper's parameters (624 datapath
   bits): crosspoint cost and per-bit steering cost in mm².  With these
   two constants the model reproduces every Table 1 cell to within the
   table's rounding. *)
let xpoint_mm2_per_bit = 1.1065e-2 /. 624.0
let steer_mm2_per_bit = 3.325e-3 /. 624.0
let fifo_mm2_per_bit = 3.0e-7  (* flip-flop based ring buffer at 15 nm *)

let log2 x = log (float_of_int x) /. log 2.0

let datapath_bits c = c.header_bits + c.meta_bits + c.phantom_bits

let area c =
  let w = float_of_int (datapath_bits c) in
  let k = float_of_int c.k in
  let s = float_of_int c.stages in
  let crossbar = s *. xpoint_mm2_per_bit *. w *. k *. k in
  let steering = s *. steer_mm2_per_bit *. w *. k *. log2 c.k in
  let fifo = s *. fifo_mm2_per_bit *. w *. k *. float_of_int c.fifo_depth in
  { crossbar_mm2 = crossbar; steering_mm2 = steering; fifo_mm2 = fifo;
    total_mm2 = crossbar +. steering +. fifo }

(* Critical path: stage base logic, a log2(k)-deep crossbar mux tree, and
   wire delay growing linearly with the crossbar span. *)
let t_base_ns = 0.55
let t_mux_ns = 0.04
let t_wire_ns = 0.01

let clock_ghz c =
  let t = t_base_ns +. (t_mux_ns *. log2 c.k) +. (t_wire_ns *. float_of_int c.k) in
  1.0 /. t

type sram_overhead = {
  bits_per_index : int;
  total_bits : int;
  total_kb : float;
}

let sram ~stateful_stages ~entries_per_stage =
  let bits_per_index = 6 + 16 + 8 in
  let total_bits = stateful_stages * entries_per_stage * bits_per_index in
  { bits_per_index; total_bits; total_kb = float_of_int total_bits /. 8192.0 }

let switch_fraction a = (a.total_mm2 /. 700.0, a.total_mm2 /. 300.0)
