#!/usr/bin/env bash
# Paired benchmark runs of this checkout against a base revision, judged
# with `compare --pairs`.  Run from the repository root:
#
#   bash tools/perf_pairs.sh BASE [PAIRS] [SEED]      # or: make perf-pairs BASE=<rev>
#
# BASE (any git revision) is extracted with `git archive` into
# _perfpairs/base; the other side is the working tree as it stands.
# Both are built, then pair i runs `perfbench/run.sh all --repeat 1
# --seed SEED+i` (SEED defaults to 21) once on each side, alternating
# which side goes first, appending to _perfpairs/base.jsonl and
# _perfpairs/head.jsonl.  The last step prints `compare --pairs` of the
# two files; the script exits 1 if any run failed an answer check or
# compare found a metric that moved by more than its bound, in either
# direction.  PAIRS defaults to 10;
# each pair takes about six minutes at the default 20 s per workload.
set -euo pipefail
base=${1:?usage: tools/perf_pairs.sh BASE [PAIRS] [SEED]}
pairs=${2:-10}
seed=${3:-21}
root=$(pwd)
out=$root/_perfpairs
rm -rf "$out"
mkdir -p "$out/base"
git archive "$base" | tar -x -C "$out/base"
build() {
  (cd "$1" && dune build --root . --cache=disabled --display=quiet ./perfbench/standby_bench.exe)
}
build "$out/base"
build "$root"
failed=0
side() {
  local dir=$1 name=$2 s=$3
  echo "perf_pairs: $name seed $s" >&2
  (cd "$dir" && bash perfbench/run.sh all --repeat 1 --seed "$s" --out "$out/$name.jsonl") \
    >>"$out/$name.log" 2>&1 || failed=1
}
for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    side "$out/base" base "$s"
    side "$root" head "$s"
  else
    side "$root" head "$s"
    side "$out/base" base "$s"
  fi
done
differs=0
bash perfbench/run.sh compare "$out/base.jsonl" "$out/head.jsonl" --pairs || differs=1
if ((failed)); then
  echo "perf_pairs: a run failed an answer check (see _perfpairs/*.log)" >&2
  exit 1
fi
if ((differs)); then
  echo "perf_pairs: a metric differs by more than its bound, better or worse (see the table)" >&2
fi
exit "$differs"
