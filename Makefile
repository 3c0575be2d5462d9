.PHONY: all build test bench bench-smoke bench-e2e-smoke metrics-smoke profile-smoke fault-smoke longrun-smoke chaos-smoke fabric-smoke perf perf-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tiny CI-sized subset: two domains exercise the parallel runner, the
# smoke scale keeps it under a minute on one core.  sim-micro times the
# compiled-kernel vs AST-interpreter engines on the same traces and
# exits non-zero if their results ever differ; perf records the bechamel
# estimates (including sim:heavy-hitter-2k and its :interp twin).
bench-smoke:
	dune exec bench/main.exe -- --smoke --jobs 2 --json BENCH_results.json \
	  --metrics-dir BENCH_metrics \
	  d2 d3 fig7a ablate-fifo ablate-gate sim-micro perf

# Cram test of the mp5sim telemetry surface (--metrics / --metrics-prom /
# --trace / --report): exact CLI output, schema tags, event counts.
metrics-smoke:
	dune build @metrics

# Profiler smoke: the cram test pins the --profile CLI surface (report
# shape, snapshot/trace schema tags, exit codes), then a full-profiled
# heavy-hitter-2k run on the parallel engine writes the mp5-prof/1
# snapshot (validated before the write; a broken snapshot exits 3) and
# the Perfetto trace CI uploads as an artifact.
profile-smoke:
	dune build @profile
	dune exec bin/mp5sim.exe -- --app heavy_hitter --pipelines 4 --packets 2000 --seed 3 \
	  --engine par --jobs 2 --profile=full \
	  --profile-out PROFILE_snapshot.json --trace-perfetto PROFILE_trace.json

# Degraded-mode smoke: a pipeline dies mid-run with the invariant
# monitor attached (a violation exits 3 and leaves its diagnostic in
# MONITOR_verdict.txt for CI to upload), then the degraded bench
# experiment measures the recovery against static sharding.
fault-smoke:
	dune exec bin/mp5sim.exe -- --app flowlet --pipelines 4 --packets 3000 --seed 3 \
	  --fault-plan 'seed 7; down @300 pipe=1; up @2400 pipe=1' \
	  --monitor --monitor-dump MONITOR_verdict.txt --report
	dune exec bench/main.exe -- --smoke degraded --json BENCH_degraded.json

# Streaming + checkpoint/resume smoke.  The longrun bench experiment
# drains a pull-based source through several suspend/resume chunks and
# compares against the uninterrupted run; it executes under a hard
# 512 MB address-space ceiling to pin the constant-memory claim (the
# OCaml 5 runtime reserves large virtual areas up front, so the ceiling
# cannot go much lower — what matters is that it does not move with the
# packet count).  The CLI round-trip then snapshots a run mid-flight and
# resumes it, leaving the snapshot as a CI artifact.
longrun-smoke:
	dune build bench/main.exe bin/mp5sim.exe
	bash -c 'ulimit -v 524288; \
	  ./_build/default/bench/main.exe --smoke longrun --json BENCH_longrun.json'
	dune exec bin/mp5sim.exe -- --app flowlet --pipelines 4 --packets 3000 --seed 3 \
	  --checkpoint-every 150 --snapshot LONGRUN_snapshot.bin
	dune exec bin/mp5sim.exe -- --app flowlet --pipelines 4 --packets 3000 --seed 3 \
	  --resume LONGRUN_snapshot.bin

# Crash-tolerance soak: the supervise cram test pins the watchdog /
# auto-resume CLI surface (restart transcripts, exit codes 4 and 5,
# torn-snapshot fallback), then the chaos bench experiment runs
# randomized supervised campaigns — SIGKILLs at scheduled cycles,
# checkpoints torn mid-write, watchdog wedges — each required to finish
# bit-identical to its uninterrupted oracle.  A failing campaign is
# delta-debugged to a minimal repro artifact in CHAOS_repro/ (uploaded
# by CI) and fails the run.
chaos-smoke:
	dune build @supervise
	dune exec bench/main.exe -- --smoke chaos --json BENCH_chaos.json \
	  --chaos-dir CHAOS_repro

# Multi-switch fabric smoke: the cram test pins the --fabric CLI
# surface (topology and forwarding-table pretty-print, jobs 1 vs 4
# byte-identical run output, the 0/1/2/3 exit-code contract including
# the --fab-sabotage conservation violation), then the fabric bench
# experiment runs a 2x2 leaf-spine with an enforced jobs-parity check
# and writes its per-hop latency percentiles and throughput row to
# BENCH_fabric.json for CI to upload.
fabric-smoke:
	dune build @fabric
	dune exec bench/main.exe -- --smoke fabric --json BENCH_fabric.json

# Engine parity + performance gate: sim-micro times compiled kernels vs
# the AST interpreter, sim-par times the sequential vs parallel cycle
# engines at jobs = 1, 2, 4, 8 (k = 8) and appends both rows to
# BENCH_results.json.  Either experiment exits non-zero the moment the
# engines' outputs differ; sim-par additionally fails if the parallel
# engine is slower than the sequential one at jobs >= 4 — but only on
# hosts whose Domain.recommended_domain_count can actually run 4
# domains, so a 1-core CI container still proves bit-identity without
# flagging barrier overhead it cannot amortize.
# scripts/perf_gate.sh additionally compares the fresh
# heavy-hitter-2k/kernel_ns against the baseline committed in git HEAD
# (+/-25% band: above fails as a regression, well below warns that the
# baseline should be refreshed; no committed baseline skips the
# comparison with a warning).
perf-smoke:
	sh scripts/perf_gate.sh

# The mp5bench oracles on every push: each workload runs for 3 s at
# seed 1 and its result line (the last line of stdout) must report
# "correct": true and "failed": 0.  On fabric-checkpointed that checks
# the drain chunked through mp5-fab/1 suspend/resume against the
# uninterrupted one.
bench-e2e-smoke:
	@for w in switch-linerate apps-verify fabric-checkpointed; do \
	  line=$$(bash mp5bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1); \
	  echo "$$w: $$line"; \
	  case "$$line" in \
	    *'"correct": true'*'"failed": 0,'*) ;; \
	    *) echo "bench-e2e-smoke: $$w did not pass its oracle" >&2; exit 1 ;; \
	  esac; \
	done

bench:
	dune exec bench/main.exe

perf:
	dune exec bench/main.exe -- perf

clean:
	dune clean
