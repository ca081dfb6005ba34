GO ?= go

.PHONY: all check build vet test mutants alloc-sites bench-check race crash-test fuzz-smoke bench figures suite suite-smoke suite-check trace-demo tracez-smoke serve-demo cover loc clean

all: check

# The fast gate, CI's check job: every test once, then one iteration of
# every benchmark, with -benchmem, so that none can rot unbuilt or panic
# unseen.
check: build vet test
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

build:
	$(GO) build ./...

# go vet, then gofmt over every Go file in the tree (benchmark/
# included): any file gofmt would rewrite fails the gate. Then every
# package under internal/ must have a non-test importer in this module
# or in benchmark/: a package only tests reach is code nothing runs.
# The tests' two helpers are the exceptions: internal/leakcheck, the
# goroutine-leak check, and internal/difftest, the differential tests'
# seed walk. Last, every run: name of the mutant corpus must be a whole
# name that `go test -list` finds in its pkg:, so that a test renamed or
# moved cannot leave a mutant uncaught unseen.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@imported=$$({ $(GO) list -f '{{join .Imports "\n"}}' ./... && cd benchmark && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u); \
	orphans=$$($(GO) list ./internal/... | grep -vxE 'revelation/internal/(leakcheck|difftest)' | while read p; do echo "$$imported" | grep -qx "$$p" || echo "$$p"; done); \
	if [ -n "$$orphans" ]; then echo "no non-test importer:"; echo "$$orphans"; exit 1; fi
	@for pkg in $$(sed -n 's/^pkg: //p' $(MUTANT_CORPUS)/*.mutant | sort -u); do \
		tests=$$($(GO) test -list . $$pkg | grep -E '^(Test|Fuzz|Example)') || { echo "go test -list $$pkg found no test"; exit 1; }; \
		for n in $$(grep -lx "pkg: $$pkg" $(MUTANT_CORPUS)/*.mutant | xargs sed -n 's/^run: //p' | tr '|' ' '); do \
			echo "$$tests" | grep -qx -- "$$n" || { echo "$$n matches no test in $$pkg"; exit 1; }; \
		done; \
	done

MUTANT_CORPUS = internal/difftest/testdata/mutants

# Every test once, uncached: the differential tests at their full count,
# the allocation pins (which skip under -race) and the root package's
# Examples, their output checked against their // Output: blocks.
test:
	$(GO) test -count=1 ./...

# Every test of every package under the race detector, twice, so that
# state one run leaks into the next surfaces too. The differential
# tests walk their reduced count here (internal/difftest's Count).
race:
	$(GO) test -race -count=2 ./...

# The recorded mutants (internal/difftest/testdata/mutants), each applied
# with `go test -overlay` — the tree is never touched — and run against
# the tests it names: every one must be caught, printing its recorded
# failure (for a walked model, its seed and step). The runner's own
# test plants a mutant that changes nothing (survived) and one whose
# snippet is in no file (rotted). Tier-1 and check leave it out: without
# MUTANTS=1 both tests skip.
mutants:
	MUTANTS=1 $(GO) test -count=1 -timeout 30m -run 'TestMutants|TestMutantVerdicts' -v ./internal/difftest

# Where one warm query's allocations come from, site by site:
# BenchmarkAssembleDeep, BenchmarkAssembleScan, BenchmarkAssembleShared
# (the shared table on), BenchmarkAssembleLanes (the prefetched lanes of
# a two-member router) and BenchmarkStoreTransact (32 pairs and their
# commit), each run at -benchtime=2x and at 3x with every allocation
# sampled (-memprofilerate 1). A run at nx makes n+1 queries (the
# testing package runs b.N=1 first), so pprof's -diff_base of the 2x
# profile against the 3x one is exactly one query after warm ones: what
# outlives a query (the elevators' leaves, the lanes' loads, the
# store's first transaction) is not in it. Flat objects and bytes per
# source line under the query or the transaction, the database build
# and the input items left out. EXPERIMENTS.md "The allocation floor,
# second pass", "One allocation per object read", "Two allocations per
# complex object", "What outlives a query" and "Code only tests reach"
# hold its tables. The profiles and the test binaries go to a temporary
# directory that is removed.
alloc-sites:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	sites() { \
		pkg=$$1 b=$$2 focus=$$3 ignore=$$4; \
		for n in 2 3; do \
			$(GO) test -trimpath -run '^$$' -bench "^Benchmark$$b$$" -benchtime=$${n}x -benchmem -memprofilerate 1 \
				-memprofile "$$d/$$b.$$n.prof" -o "$$d/$$pkg.test" ./internal/$$pkg > "$$d/$$b.out" || { cat "$$d/$$b.out"; return 1; }; \
		done; \
		grep '^Benchmark' "$$d/$$b.out"; \
		for idx in alloc_objects alloc_space; do \
			$(GO) tool pprof -diff_base "$$d/$$b.2.prof" -sample_index=$$idx -focus=$$focus -ignore=$$ignore -nodefraction=0 -lines -top \
				"$$d/$$pkg.test" "$$d/$$b.3.prof" 2>/dev/null | awk -v idx=$$idx '/flat%/ {p = 1; print "  " idx; next} p && $$1 != "0" && $$1 != "0B"'; \
		done; \
	}; \
	sites assembly AssembleDeep benchAssemble rootItems && \
	sites assembly AssembleScan benchAssemble rootItems && \
	sites assembly AssembleShared benchAssemble rootItems && \
	sites assembly AssembleLanes benchAssemble rootItems && \
	sites object StoreTransact BenchmarkStoreTransact newTransactor

# The benchmark is a module of its own (benchmark/go.mod), so build,
# vet and test above never compile it: an internal/* signature change
# that breaks it would show only when the driver runs it. This builds
# and tests it in place, touching no file under benchmark/.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The exhaustive crash-point sweep at a heavier workload than the
# tier-1 default: the heap's inserts (spread over the extent) and
# logged updates, every write ordinal crashed twice (clean and torn),
# recovered, and verified to hold exactly the state after some prefix
# of the ops at or past the last commit. CRASH_OPS scales the workload.
# At 96 ops it is W = 186 write points, with torn data pages caught
# before recovery at 37 of them.
crash-test:
	CRASH_OPS=96 $(GO) test -run TestCrashPointSweep -v ./internal/wal

# A short coverage-guided fuzz of the slotted page (including the
# corruption op that tries to break the bounds checks), of the
# page-service wire header decoder (malformed frames must error, never
# panic or over-allocate, and one that is no request — seeded with a
# header of 10 bytes and of 25 — is answered with one error frame before
# its connection closes; a read that decodes, of a page or of a run —
# seeded with runs of no page, of a ragged id list and off the device —
# is answered by a server with exactly the pages asked for or an error;
# a write that decodes, of a page or of a run — seeded with runs of one
# and three pages, of no page, of a ragged body and off the device — is
# answered done, short at its first page off the device, or with an
# error, and leaves the device holding the images it says it wrote; a
# Follow delta frame that decodes re-encodes to itself),
# of the object record decoder (Shape +
# DecodeInto must agree with Decode on every input), of the WAL
# reader (arbitrary bytes as a log: the scan ends, hands out only
# records inside the device, and allocates no more than the device
# holds; seeded with deltas of no bytes, inside a header, past a page
# and off their page's chain, and every record it hands out applied
# onto a device — an applied delta leaves its page verified at its LSN,
# a refused one leaves the page alone) and of the template JSON loader
# (a template or an error, with a catalog and without, never a panic;
# what parses marshals and parses back to the same template).
fuzz-smoke:
	$(GO) test -fuzz=FuzzPageOps -fuzztime=10s ./internal/page
	$(GO) test -fuzz=FuzzProtoDecode -fuzztime=10s ./internal/pagesvc
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/object
	$(GO) test -fuzz=FuzzWALScan -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzTemplateJSON -fuzztime=10s ./internal/assembly

# One testing.B sub-benchmark per figure the harness registers
# (BenchmarkFigure/<id> at the repo root), plus the substrate
# micro-benchmarks in each package.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure of the paper's evaluation at full scale.
figures:
	$(GO) run ./cmd/asmbench -figure all

# Regenerate the tracked benchmark trajectory: every core scenario,
# three-way verified, written to BENCH_core.json at the repo root.
suite:
	$(GO) run ./cmd/asmbench -suite core -v

# The scenario suite's smoke subset under the race detector.
suite-smoke:
	$(GO) run -race ./cmd/asmbench -suite smoke -out /dev/null -v

# The tracked trajectory is its own canonical form: every field of
# BENCH_core.json is a deterministic counter, so regenerating it must
# reproduce the checked-in file byte for byte. A diff here is a real
# behaviour change — rerun `make suite` and review it.
suite-check:
	$(GO) run ./cmd/asmbench -suite core -out - | diff -u BENCH_core.json -

# End-to-end smoke test for per-query tracing: boot asmserve, run
# /query requests, and check /tracez shows their span trees with
# critical-path attribution (plus the slow-query log and the /statusz
# latency quantiles). Part of CI.
tracez-smoke:
	sh scripts/tracez_smoke.sh

# End-to-end observability demo: record a traced benchmark run, then
# replay the trace and verify it reconstructs the reported counters.
trace-demo:
	$(GO) run ./cmd/asmbench -figure fig13c -scale 0.1 -trace trace.jsonl
	$(GO) run ./cmd/asmtrace trace.jsonl

# Live observability demo: run the faulty workload in a loop with
# /metrics, /statusz, and pprof served on :8091.
serve-demo:
	$(GO) run ./cmd/asmserve -figure faults -scale 0.3

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Go lines outside benchmark/: non-test first (the number ROADMAP aim 2
# tracks), then test files.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

clean:
	rm -f cover.out test_output.txt bench_output.txt db.pages db.manifest trace.jsonl
