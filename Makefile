.PHONY: all build test litmus examples smoke lint fuzz sym-wide cands-wide \
	bmc check bench service-smoke loc clean

all: build

build:
	dune build

test:
	dune runtest

litmus:
	dune exec bin/vrm_cli.exe -- litmus

examples:
	dune build examples
	dune exec examples/quickstart.exe
	dune exec examples/litmus_gallery.exe
	dune exec examples/vm_lifecycle.exe
	dune exec examples/wdrf_audit.exe
	dune exec examples/migration.exe

# End-to-end CLI smoke: one litmus test through the shared JSON printer.
smoke:
	dune exec bin/vrm_cli.exe -- litmus mp-plain --stats
	dune exec bin/vrm_cli.exe -- litmus mp-plain --json

# Static wDRF lint over every kernel corpus entry, cross-validated
# against the dynamic checkers. Exits non-zero on any disagreement.
lint:
	dune exec bin/vrm_cli.exe -- lint --corpus

# Wide security-invariant fuzzing: the test_fuzz hypercall storm over
# seeds 0-9,999 (about 6 s on a 2-vCPU VM; it prints its wall time,
# storms/s and the census of what the storms drew against its floors),
# outside the test suite. Each storm's trace also goes through the
# Write-Once and Sequential-TLB-Invalidation checkers. Exits non-zero
# and names the seeds if any storm breaks an invariant or a trace
# check, or names the labels below their floor.
fuzz:
	VRM_FUZZ_SEEDS=10000 dune exec test/test_fuzz.exe

# Wide thread-symmetry check, outside the test suite: one reversed
# declaration order of sym-stress-4 against the original, Promising
# under its default config (~1.8M states per run, about a minute on a
# 2-vCPU VM). Exits non-zero if digests or the canonical quotient
# differ, or a run hits its state budget.
sym-wide:
	VRM_SYM_WIDE=1 dune exec test/test_engine.exe

# Wide promise-candidate check, outside the test suite: on the random
# two-thread programs of seeds 0-4,999, every solo run's candidate set
# must equal the stores a walk of all its solo paths finds. Exits
# non-zero and names the seeds on any difference.
cands-wide:
	VRM_CANDS_WIDE=1 dune exec test/test_engine.exe

# Cross-validate the SAT-based BMC backend against the explicit-state
# engines: digest equality on every litmus-suite entry, both memory
# models. Exits non-zero on any divergence.
bmc:
	dune exec bin/vrm_cli.exe -- litmus --suite --backend=both

# The tier-1 gate: what CI runs. (CI additionally runs fuzz, sym-wide
# and cands-wide, the benchmark's output checks and self-tests
# (perfbench-checks) and service-smoke in their own jobs.)
check: build test examples litmus smoke lint bmc

bench:
	dune exec bench/main.exe

# Service smoke: start vrmd, push a corpus subset through the socket
# on both lanes, verify parity against direct runs, prune the cache
# with cache-gc, exercise graceful shutdown.
service-smoke: build
	sh scripts/service_smoke.sh

# Non-blank .ml/.mli line counts per library directory, for the
# executables, benchmarks, tests and scripts, and in total: the one way
# a change's net-lines figure is measured.
loc:
	@total=0; for d in lib/* bin bench test scripts; do \
	  n=$$(find $$d -name '*.ml' -o -name '*.mli' | sort | xargs -r cat \
	    | grep -c -v '^[[:space:]]*$$'); \
	  total=$$((total + n)); printf '%-16s %6d\n' $$d $$n; \
	done; printf '%-16s %6d\n' total $$total

clean:
	dune clean
