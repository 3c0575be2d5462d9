#!/usr/bin/env bash
# Build the benchmark driver from source, then run it with the given
# arguments (see README.md).  Run from the root of a checkout:
#
#   bash mp5bench/run.sh --workload switch-linerate --seed 1 --seconds 30 --trace 0
#
# The driver is a dune project of its own that links the repository's
# private libraries, so the build stages a tree under .bench_build/:
# mp5bench/dune-project at its top, a copy of lib/, and the driver.  The
# build log goes to stderr, so the last line of stdout is always the
# driver's JSON result.  Without lib/, or when the build fails, the
# script exits non-zero and prints no result.
set -euo pipefail

if [ ! -d lib ] || [ ! -f mp5bench/main.ml ]; then
  echo "mp5bench: lib/ or mp5bench/ missing; run from the root of a checkout" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# Keep every build artifact inside the checkout.  The build directory
# sits outside the staged sources, so restaging does not force a
# rebuild: dune sees the same file contents.
stage="$PWD/.bench_build/mp5bench"
export DUNE_CACHE=disabled XDG_CACHE_HOME="$stage/cache"

rm -rf "$stage/src"
mkdir -p "$stage/src/mp5bench"
cp -R lib "$stage/src/lib"
cp mp5bench/dune-project "$stage/src/dune-project"
cp mp5bench/dune mp5bench/*.ml "$stage/src/mp5bench/"
(cd "$stage/src" && dune build --root . --build-dir "$stage/_build" --profile mp5bench \
  --display quiet ./mp5bench/main.exe) 1>&2
exec "$stage/_build/default/mp5bench/main.exe" "$@"
