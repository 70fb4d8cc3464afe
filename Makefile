.PHONY: all test ci bench clean

all:
	dune build

test:
	dune runtest

# Everything CI runs: full build, test suites, batch-engine smoke test.
ci:
	dune build @ci

bench:
	dune exec bin/standbyopt.exe -- report

clean:
	dune clean
