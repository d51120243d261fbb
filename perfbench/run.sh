#!/usr/bin/env bash
# Build the benchmark and the ropserved daemon from source, then run one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload fig5-run --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe bin/ropserved.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
