(** Analytic chip-area / clock-frequency / SRAM model of MP5's new
    hardware (§4.2, Table 1).

    The paper synthesised its System Verilog design with Synopsys DC on an
    open 15 nm cell library; no synthesis tool exists in this environment,
    so we model the MP5-specific components from first principles and
    calibrate two constants against the published Table 1:

    - the inter-stage crossbars dominate and scale with
      [k² × datapath width] (crosspoints and wiring — "the area consumed
      is dominated by crossbars", and the table's growth is quadratic in
      the pipeline count);
    - steering/arbitration logic (a [log₂ k]-deep mux/comparator tree per
      pipeline) contributes [k·log₂ k];
    - the per-stage FIFOs ([k] rings × depth 8 × entry width) are small
      flip-flop arrays, within the table's rounding (≈0.004 mm² per stage
      at k = 8), and are reported separately;
    - everything scales linearly in the number of stages.

    The clock model is the crossbar traversal: a mux tree of depth
    [log₂ k] plus wire delay linear in [k] on top of the stage's base
    logic depth; it yields ≥ 1 GHz for every Table 1 configuration and
    degrades past k ≈ 16 — the scalability limit §3.5.3 anticipates. *)

type config = {
  k : int;              (** pipelines *)
  stages : int;
  header_bits : int;    (** data packet header (paper: 512) *)
  meta_bits : int;      (** steering metadata carried per packet *)
  phantom_bits : int;   (** phantom packet size (paper: 48) *)
  fifo_depth : int;     (** entries per ring (paper: 8) *)
}

val paper_config : k:int -> stages:int -> config
(** Table 1's parameters: 512-bit headers, 48-bit phantoms, depth-8
    FIFOs, 64 metadata bits. *)

type area_breakdown = {
  crossbar_mm2 : float;
  steering_mm2 : float;
  fifo_mm2 : float;
  total_mm2 : float;
}

val area : config -> area_breakdown
(** MP5-specific area, in mm² at 15 nm. *)

val clock_ghz : config -> float
(** Achievable clock frequency. *)

type sram_overhead = {
  bits_per_index : int;       (** 6 pipeline id + 16 access + 8 in-flight *)
  total_bits : int;
  total_kb : float;           (** per pipeline *)
}

val sram : stateful_stages:int -> entries_per_stage:int -> sram_overhead
(** §4.2's SRAM overhead: the index-to-pipeline map plus both counters
    for every register index. *)

val switch_fraction : area_breakdown -> float * float
(** MP5's overhead as a fraction of a commercial switch ASIC
    (300–700 mm², Chole et al.). *)
