.PHONY: all build test bench bench-smoke bench-e2e-smoke cli-smoke metrics-smoke profile-smoke fault-smoke longrun-smoke chaos-smoke fabric-smoke forge-smoke perf-smoke dead-exports loc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tiny CI-sized subset: two domains exercise the parallel runner, the
# smoke scale keeps it under a minute on one core.  sim-micro times the
# closure kernels on a heavy-hitter trace and counts the minor words
# allocated per packet.
bench-smoke:
	dune exec bench/main.exe -- --smoke --jobs 2 --json BENCH_results.json \
	  --metrics-dir BENCH_metrics \
	  d2 d3 fig7a ablate-fifo ablate-gate sim-micro

# The command-line contract on its own: the 0-5 exit codes of mp5sim,
# mp5c and the bench driver (every subcommand rejects the flags of the
# others), mp5sim's subcommands end to end, and mp5c's dumps and errors.
cli-smoke:
	dune build @exit_codes @mp5sim @mp5c

# Cram test of the mp5sim telemetry surface (`mp5sim run` with --metrics
# / --metrics-prom / --trace / --report): exact CLI output, schema tags,
# event counts.
metrics-smoke:
	dune build @metrics

# Profiler smoke: the cram test pins the --profile CLI surface (report
# shape, snapshot/trace schema tags, exit codes), then a full-profiled
# heavy-hitter-2k run writes the mp5-prof/1
# snapshot (validated before the write; a broken snapshot exits 3) and
# the Perfetto trace CI uploads as an artifact.
profile-smoke:
	dune build @profile
	dune exec bin/mp5sim.exe -- run --app heavy_hitter --pipelines 4 --packets 2000 --seed 3 \
	  --profile=full \
	  --profile-out PROFILE_snapshot.json --trace-perfetto PROFILE_trace.json

# Degraded-mode smoke: a pipeline dies mid-run with the invariant
# monitor attached (a violation exits 3 and leaves its diagnostic in
# MONITOR_verdict.txt for CI to upload), then the degraded bench
# experiment measures the recovery against static sharding.
fault-smoke:
	dune exec bin/mp5sim.exe -- run --app flowlet --pipelines 4 --packets 3000 --seed 3 \
	  --fault-plan 'seed 7; down @300 pipe=1; up @2400 pipe=1' \
	  --monitor --monitor-dump MONITOR_verdict.txt --report
	dune exec bench/main.exe -- --smoke degraded --json BENCH_degraded.json

# Streaming + checkpoint/resume smoke.  The longrun bench experiment
# drains a pull-based source through several suspend/resume chunks and
# compares against the uninterrupted run; it executes under a hard
# 512 MB address-space ceiling to pin the constant-memory claim (the
# OCaml 5 runtime reserves large virtual areas up front, so the ceiling
# cannot go much lower — what matters is that it does not move with the
# packet count).  The CLI round-trip then checkpoints a streamed run
# (`mp5sim stream`) and resumes from its last snapshot (`mp5sim resume`),
# leaving the snapshot as a CI artifact.
longrun-smoke:
	dune build bench/main.exe bin/mp5sim.exe
	bash -c 'ulimit -v 524288; \
	  ./_build/default/bench/main.exe --smoke longrun --json BENCH_longrun.json'
	dune exec bin/mp5sim.exe -- stream --app flowlet --pipelines 4 --packets 3000 --seed 3 \
	  --checkpoint-every 150 --snapshot LONGRUN_snapshot.bin
	dune exec bin/mp5sim.exe -- resume LONGRUN_snapshot.bin --app flowlet --pipelines 4 \
	  --packets 3000 --seed 3

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

# Multi-switch fabric smoke: the cram test pins the `mp5sim fabric` CLI
# surface (topology and forwarding-table pretty-print, the run's
# digests, the 0/1/2/3 exit-code contract including the --sabotage
# conservation violation), then the fabric bench experiment runs a 2x2
# leaf-spine under the conservation monitor and writes its per-hop
# latency percentiles and throughput row to BENCH_fabric.json for CI
# to upload.
fabric-smoke:
	dune build @fabric
	dune exec bench/main.exe -- --smoke fabric --json BENCH_fabric.json

# Snapshot forgery smoke: the forge bench experiment suspends a switch
# and a 2x2 leaf-spine run of each of 20 progen programs at three
# cycles, lists every field the decode reads (with its stated rule),
# forges each to six values, reseals and resumes.  Each case must end
# in Ok, a positioned Corrupt or a Mismatch; an exception fails the
# run (exit 3).  Prints the field, rule and case counts and the wall
# time, and writes BENCH_forge.json.
forge-smoke:
	dune exec bench/main.exe -- --smoke forge --json BENCH_forge.json

# Performance gate: sim-micro times the closure kernels on a
# heavy-hitter trace and writes its row to BENCH_results.json.
# scripts/perf_gate.sh then compares fresh keys against the baseline
# committed in git HEAD: heavy-hitter-2k/kernel_ns divided by
# host/calib_ns, a fixed host-calibration loop timed in the same run
# (+/-25% band on the ratio: above fails as a regression, well below
# warns that the baseline should be refreshed), and deterministic
# allocation counters that fail above 1.02x:
# heavy-hitter-2k/words_per_pkt (minor plus direct major words per
# packet), generic/words_per_pkt (the same count: there is one cycle
# loop, and the key the oracle loop was gated by stays),
# golden/words_per_pkt, trace_io/words_per_byte,
# verify/words_per_pkt (one Switch.verify of flowlet: golden machine,
# Sim.run with its collectors, Equiv), fabric-boundary/words (one fabric checkpoint decode + encode, into
# new machines) and fabric-legs/words_per_pkt (an in-process fabric
# drain in 500-cycle legs, each resume decoding into the machines the
# previous leg suspended) and fabric-drain/words_per_pkt (that fabric
# drained straight, no checkpoints, less a one-packet drain: the packet
# path alone) and switch-legs/words_per_pkt (one switch drained
# in-process in 100-cycle legs, each Sim.resume decoding into the
# machine the previous leg suspended, less a straight drain: the leg
# boundaries alone), tracegen/words_per_pkt and traffic/words_per_pkt
# (each generator drained through its Packet_source cursor, less a
# one-packet drain) and one app/<name>/words_per_pkt per lib/apps
# program (its flow trace run straight, less a one-packet run: the
# cycle loop in steady state).  No committed baseline skips a
# comparison with a warning.
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

# Compiler-checked dead-export pass: on a scratch copy, delete each
# candidate val from its .mli and type-check lib bin bench examples
# mp5bench without test.  Fails when a val only tests (or only its own
# module) reach is neither deleted nor listed with a reason in
# scripts/dead_exports.keep, or when a kept val is reached again.
# About 2 minutes on a 2-vCPU host; --all checks every val (~13 min).
dead-exports:
	sh scripts/dead_exports.sh

# Size ledger: the .ml/.mli/.t line total under lib bin bench test, and
# lib/core/sim.ml alone -- the numbers a size claim in ROADMAP or
# CHANGES cites.
loc:
	@printf 'lib bin bench test (.ml .mli .t): '
	@find lib bin bench test -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.t' \) \
	  -exec cat {} + | wc -l
	@printf 'lib/core/sim.ml: '
	@wc -l < lib/core/sim.ml

bench:
	dune exec bench/main.exe

clean:
	dune clean
