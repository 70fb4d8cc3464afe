#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload greedy-50k --seed 11 --seconds 20 --trace 0
#   bash perfbench/run.sh all --repeat 3 --out runs.jsonl
#   bash perfbench/run.sh compare before.jsonl after.jsonl
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's own JSON result.  The shared dune cache stays off so the
# build reads and writes nothing outside the checkout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --cache=disabled --display=quiet ./perfbench/standby_bench.exe 1>&2
exec ./_build/default/perfbench/standby_bench.exe "$@"
