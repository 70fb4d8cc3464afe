.PHONY: all test ci perf-smoke perf-pairs pop-cost bench clean

all:
	dune build

test:
	dune runtest

# Everything CI runs: full build, test suites, batch-engine smoke test.
ci:
	dune build @ci

# Every benchmark workload once, one second each, with every answer
# checked (served == offline, repeat bit-identity, partition jobs=1 ==
# jobs=2); exits 1 if any answer fails.  About two minutes.
perf-smoke:
	bash perfbench/run.sh all --repeat 1 --seconds 1

# PAIRS paired `all --repeat 1` runs of the working tree against BASE (a
# git revision), which side first alternating, judged with
# `compare --pairs`; results in _perfpairs/.  About six minutes a pair.
PAIRS ?= 10
perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<rev> [PAIRS=10]"; exit 2; }
	bash tools/perf_pairs.sh $(BASE) $(PAIRS)

# Pops, seconds and ns per incremental-STA worklist pop for greedy and
# heu1 run to quiescence at 5k, 20k and 100k generated gates.  About a
# minute; not part of `ci`.
pop-cost:
	dune exec tools/pop_cost.exe

bench:
	dune exec bin/standbyopt.exe -- report

clean:
	dune clean
