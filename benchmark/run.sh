#!/bin/sh
# Build the benchmark from source and run it.  Run from the root of a
# source tree; arguments go to `taupsm_bench run` (see README.md), e.g.
#   sh benchmark/run.sh --workload report-1y --seed 42 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchmark/dune ]; then
  echo "run.sh: run from the root of a taupsm source tree (dune-project, lib/, benchmark/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artifact inside the tree
DUNE_CACHE=disabled dune build --root . -j 2 ./benchmark/taupsm_bench.exe 1>&2
exec ./_build/default/benchmark/taupsm_bench.exe run "$@"
