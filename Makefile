.PHONY: all test ci perf-smoke bench clean

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

bench:
	dune exec bin/standbyopt.exe -- report

clean:
	dune clean
