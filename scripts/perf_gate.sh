#!/bin/sh
# Performance regression gate for the simulator hot path.
#
# Reads the committed BENCH_results.json baseline (the copy in git HEAD
# — the working-tree file is overwritten by every bench run), runs the
# sim-micro smoke, and compares fresh keys against the baseline.
#
# heavy-hitter-2k/kernel_ns, wall clock, divided by host/calib_ns: the
# min time of a fixed host-calibration loop (memory-bound and
# allocating, no program code) timed in the same run, interleaved with
# the kernel runs.  Raw wall clock on a shared host moves 1.5-2x
# between periods with the code unchanged; the ratio moves far less,
# so the gate compares the ratio with the committed one:
#
#   ratio > 1.25 x baseline ratio  ->  hard fail (regression)
#   ratio < 0.75 x baseline ratio  ->  warn: the loop got faster,
#                                      refresh and commit the baseline
#                                      so the gate tightens
#
# Allocation counters, deterministic: they move only when code changes,
# so each is gated tight, at 1.02 x baseline, and needs no retries.
#
#   heavy-hitter-2k/words_per_pkt  words per packet (minor plus direct
#                                  major), closure kernels
#   generic/words_per_pkt          the same count (one cycle loop; the key
#                                  the oracle loop was gated by stays)
#   golden/words_per_pkt           words per packet, golden machine
#                                  (sequencer, 2000 packets)
#   trace_io/words_per_byte        words per input byte, Trace_io.of_string
#                                  of that trace's text
#   verify/words_per_pkt           words per packet, one Switch.verify
#                                  (golden machine, Sim.run and its
#                                  collectors, Equiv) of flowlet on 2000
#                                  flow packets
#   fabric-boundary/words          words per fabric checkpoint boundary:
#                                  Fabric.resume ~cycle_budget:0 (decode +
#                                  encode) of a fixed mid-drain 2x2
#                                  leaf-spine snapshot, into new machines
#   fabric-legs/words_per_pkt      words per packet of an in-process drain
#                                  of that fabric in 500-cycle legs, each
#                                  resume decoding into the machines the
#                                  previous leg suspended
#   fabric-drain/words_per_pkt     words per packet of that fabric drained
#                                  straight through, no checkpoints: the
#                                  inter-switch packet path
#   switch-legs/words_per_pkt      words per packet of the heavy-hitter
#                                  trace drained in-process in 100-cycle
#                                  legs, each Sim.resume decoding into the
#                                  machine the previous leg suspended,
#                                  less a straight drain: the leg
#                                  boundaries alone
#
# The harness already takes the min over 5 interleaved repetitions,
# but shared runners also swing between whole invocations (observed
# 1.5x spikes under co-tenant load), so the gate retries: up to 3
# bench invocations, comparing the minimum, and passes as soon as one
# lands inside the band.  A real regression fails all three; a load
# spike has to survive ~30 s of wall clock to false-fail.  No baseline
# in HEAD (first run, or a shallow checkout without the file) skips
# the comparison with a warning rather than failing: the gate must not
# brick CI on the commit that introduces it.
#
# POSIX sh + awk only; run from the repo root (make perf-smoke does).
set -eu

RESULTS=BENCH_results.json
KEY='heavy-hitter-2k/kernel_ns'
CALIB='host/calib_ns'
WORDS_KEYS='heavy-hitter-2k/words_per_pkt generic/words_per_pkt golden/words_per_pkt trace_io/words_per_byte verify/words_per_pkt fabric-boundary/words fabric-legs/words_per_pkt fabric-drain/words_per_pkt switch-legs/words_per_pkt'

extract() {
  # Pull a bare number out of  "<key>": <float>  without a JSON parser;
  # the key is $1, or $KEY when omitted.
  awk -v key="\"${1:-$KEY}\":" '
    {
      while (match($0, key " *[0-9][0-9.eE+-]*")) {
        s = substr($0, RSTART, RLENGTH)
        sub(/^.*: */, "", s)
        print s
        exit
      }
    }'
}

# kernel_ns / calib_ns from a results file on stdin; empty when either
# key is missing.
ratio() {
  results=$(cat)
  kernel=$(printf '%s\n' "$results" | extract "$KEY")
  calib=$(printf '%s\n' "$results" | extract "$CALIB")
  if [ -n "$kernel" ] && [ -n "$calib" ]; then
    awk -v k="$kernel" -v c="$calib" 'BEGIN { printf "%.6f\n", k / c }'
  fi
}

baseline=$(git show "HEAD:$RESULTS" 2>/dev/null | ratio || true)

dune build bench/main.exe

best=
attempt=1
while [ "$attempt" -le 3 ]; do
  # --profile-dir records the wall-clock phase breakdown (validated
  # mp5-prof/1 snapshots) next to the results, so a gate failure comes
  # with the "where did the time go" answer attached.
  ./_build/default/bench/main.exe --smoke sim-micro --json "$RESULTS" --profile-dir BENCH_prof
  new=$(ratio < "$RESULTS")
  if [ -z "$new" ]; then
    echo "perf-gate: FAIL: $KEY or $CALIB missing from fresh $RESULTS" >&2
    exit 1
  fi
  if [ "$attempt" -eq 1 ]; then
    for words_key in $WORDS_KEYS; do
      words=$(extract "$words_key" < "$RESULTS")
      if [ -z "$words" ]; then
        echo "perf-gate: FAIL: $words_key missing from fresh $RESULTS" >&2
        exit 1
      fi
      baseline_words=$(git show "HEAD:$RESULTS" 2>/dev/null | extract "$words_key" || true)
      if [ -z "$baseline_words" ]; then
        echo "perf-gate: no committed baseline for $words_key; skipping its comparison" >&2
      elif awk -v new="$words" -v base="$baseline_words" 'BEGIN { exit !(new <= 1.02 * base) }'; then
        echo "perf-gate: $words_key: baseline $baseline_words, measured $words"
      else
        echo "perf-gate: FAIL: $words_key: $words vs baseline $baseline_words (bound 1.02x)" >&2
        exit 1
      fi
    done
  fi
  if [ -z "$best" ] || awk -v a="$new" -v b="$best" 'BEGIN { exit !(a < b) }'; then
    best=$new
  fi
  if [ -z "$baseline" ]; then
    echo "perf-gate: no committed baseline ($RESULTS not in HEAD or a key absent); skipping comparison" >&2
    echo "perf-gate: measured $KEY / $CALIB = $new (commit $RESULTS to arm the gate)"
    exit 0
  fi
  if awk -v new="$best" -v base="$baseline" 'BEGIN { exit !(new <= 1.25 * base) }'; then
    break
  fi
  echo "perf-gate: attempt $attempt: ratio $new vs baseline $baseline is outside the band; retrying" >&2
  attempt=$((attempt + 1))
done

awk -v new="$best" -v base="$baseline" 'BEGIN {
  ratio = new / base
  printf "perf-gate: %s / %s: baseline %.3f, best of attempts %.3f (%.2fx)\n", \
         "'"$KEY"'", "'"$CALIB"'", base, new, ratio
  if (ratio > 1.25) {
    printf "perf-gate: FAIL: regression beyond the 1.25x band\n" > "/dev/stderr"
    exit 1
  }
  if (ratio < 0.75) {
    printf "perf-gate: note: >25%% faster than the committed baseline; refresh and commit %s\n", \
           "'"$RESULTS"'" > "/dev/stderr"
  }
  exit 0
}'
