# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race check vet bench bench-host figures tables examples cover clean fuzz-smoke difftest-smoke docs-check trace-smoke snap-smoke resume-smoke server-smoke explore-smoke api-check

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector run: the parallel experiment engine fans simulations
# across goroutines and the sharded machine engine (internal/multi,
# exercised by the TestSharded* tests) fans rings/cores within one
# simulation, so the full suite must be race-clean.
race:
	$(GO) test -race ./...

# The gate CI runs: formatting, static checks, and the race-enabled
# suite. gofmt sees only tracked files, so ignored build output (e.g.
# .bench_build/) is never checked.
check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) test -race ./...

# Short fuzz runs for CI: each native fuzz target gets a brief budget
# (go test runs one -fuzz target per invocation).
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/isa/
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/asm/
	$(GO) test -run=NONE -fuzz=FuzzMemoryOps -fuzztime=$(FUZZTIME) ./internal/mem/
	$(GO) test -run=NONE -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run=NONE -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) ./internal/server/

# Differential conformance smoke: random programs across the full
# architecture matrix (ISS / DiAG ring configs / OoO). Exit 1 on any
# divergence. Nightly CI runs the same command with a larger -n.
DIFFTEST_N ?= 200
difftest-smoke:
	$(GO) run ./cmd/diag-difftest -seed 1 -n $(DIFFTEST_N)

# Full benchmark run: every paper figure/table plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Host simulator throughput: run the repository benchmark (perfbench,
# declared by BENCHMARK.json) on each workload for its run_seconds and
# record each result line, with num_cpu and the Go version, as
# BENCH_<workload>.json. Warn-compare a fresh run against the committed
# baseline with: python3 scripts/bench.py compare kernels
bench-host:
	python3 scripts/bench.py record kernels batch serve

# Regenerate the paper's evaluation artifacts as text tables.
figures:
	$(GO) run ./cmd/diag-bench -all

tables:
	$(GO) run ./cmd/diag-report -table1 -table2 -table3

examples:
	@for e in quickstart euclid simt compare baremetal interrupt faultdemo tracedemo; do \
		echo "=== examples/$$e ==="; \
		$(GO) run ./examples/$$e; echo; \
	done

# Documentation hygiene: every relative markdown link resolves, every
# exported symbol of the public package (and the packages behind the
# documented surfaces) carries a doc comment, and every fenced diag-*
# command in the docs uses only flags its tool actually registers.
docs-check:
	$(GO) vet ./...
	$(GO) test -run 'TestMarkdownLinks|TestExportedDocComments|TestFencedCommandFlags' .

# Observability smoke: emit a Chrome trace from each machine model and
# re-validate the files against the trace-event schema subset.
trace-smoke:
	$(GO) build -o /tmp/diag-trace ./cmd/diag-trace
	/tmp/diag-trace -kernel pathfinder -machine F4C2 -o /tmp/ring.json -summary
	/tmp/diag-trace -kernel pathfinder -machine ooo -o /tmp/ooo.json
	/tmp/diag-trace -validate /tmp/ring.json
	/tmp/diag-trace -validate /tmp/ooo.json

# Checkpoint/restore smoke: the stability property (run straight ==
# save at N/2 + restore + run the rest) on three kernels for each of the
# three machine models, the snapshot codec suite, and the diag-trace
# -from-cycle path that exercises checkpointing end to end from a tool.
snap-smoke:
	$(GO) test -run 'TestTargetStability/(iss|iss-sb|F4C2|ooo)/(pathfinder|nw|hotspot)' -count=1 -v . | tail -35
	$(GO) test -count=1 ./internal/snap/
	$(GO) build -o /tmp/diag-trace ./cmd/diag-trace
	/tmp/diag-trace -kernel pathfinder -from-cycle 30000 -o /tmp/tail.json
	/tmp/diag-trace -validate /tmp/tail.json

# Crash-safety smoke: SIGKILL a journaled fault campaign and a journaled
# conformance campaign at ~50% completion, resume each from its journal
# at a different parallelism, and require the final reports to be
# byte-identical to uninterrupted runs.
resume-smoke:
	./scripts/journal_smoke.sh resume

# Design-space-explorer smoke: SIGKILL a journaled exploration at ~50%,
# resume it at a different parallelism, and require the frontier CSV
# and printed report to be byte-identical to an uninterrupted run's —
# plus a straight determinism check across -parallel values.
explore-smoke:
	./scripts/journal_smoke.sh explore

# Simulation-service smoke: start diag-server on an ephemeral port,
# submit the same run twice (second must be a cache hit with a
# byte-identical result body), check the /metrics counters, and SIGTERM
# for a clean drain + exit 0.
server-smoke:
	./scripts/server_smoke.sh

# Public-API compatibility: the exported surface of package diag must
# match testdata/api.txt; regenerate deliberately with
#   go test -run TestAPISurface -update-api .
api-check:
	$(GO) test -run TestAPISurface -count=1 .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt trace.json
