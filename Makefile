GO ?= go

.PHONY: all check build vet test mutants alloc-check alloc-sites sched-check buffer-check asm-check disk-check wire-check gen-check bench-check test-race race-core chaos-test net-chaos-test shard-chaos-test fleet-chaos-test crash-test fuzz-smoke bench figures suite suite-smoke suite-check trace-demo tracez-smoke serve-demo cover loc clean

all: check

# The fast gate: what CI's main job runs on every push.
check: build vet test alloc-check sched-check buffer-check asm-check disk-check wire-check gen-check

build:
	$(GO) build ./...

# go vet, then gofmt over every Go file in the tree (benchmark/
# included): any file gofmt would rewrite fails the gate. Last, every
# package under internal/ must have a non-test importer in this module
# or in benchmark/: a package only tests reach is code nothing runs.
# The tests' two helpers are the exceptions: internal/leakcheck, the
# goroutine-leak check, and internal/difftest, the differential tests'
# seed walk. Then every name in the test lists the gates below run or
# skip (WIRE_TESTS, DISK_TESTS, WAL_TESTS, WAL_MODELS, BUFFER_MODELS,
# CHAOS_TESTS) must match a test that `go test -list` finds in the
# packages its target runs, and so must every run: name of the mutant
# corpus in its pkg:, so that a test renamed or moved cannot drop out of
# its gate, or leave a mutant uncaught, unseen.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@imported=$$({ $(GO) list -f '{{join .Imports "\n"}}' ./... && cd benchmark && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u); \
	orphans=$$($(GO) list ./internal/... | grep -vxE 'revelation/internal/(leakcheck|difftest)' | while read p; do echo "$$imported" | grep -qx "$$p" || echo "$$p"; done); \
	if [ -n "$$orphans" ]; then echo "no non-test importer:"; echo "$$orphans"; exit 1; fi
	@resolve() { tests=$$($(GO) test -list . $$2 | grep -E '^(Test|Fuzz|Example)') || { echo "go test -list $$2 found no test"; return 1; }; \
		for n in $$(echo "$$1" | tr '|' ' '); do echo "$$tests" | grep -q -- "$$n" || { echo "$$n matches no test in $$2"; return 1; }; done; }; \
	resolve '$(WIRE_TESTS)' '$(WIRE_PKGS)' && \
	resolve '$(DISK_TESTS)' ./internal/disk && \
	resolve '$(WAL_TESTS)|$(WAL_MODELS)' '$(WAL_PKGS)' && \
	resolve '$(BUFFER_MODELS)' ./internal/buffer && \
	resolve '$(CHAOS_TESTS)' '$(CHAOS_PKGS)' && \
	for pkg in $$(sed -n 's/^pkg: //p' $(MUTANT_CORPUS)/*.mutant | sort -u); do \
		resolve "$$(grep -lx "pkg: $$pkg" $(MUTANT_CORPUS)/*.mutant | xargs sed -n 's/^run: //p' | tr '\n' '|')" "$$pkg" || exit 1; \
	done

MUTANT_CORPUS = internal/difftest/testdata/mutants

# Every test once. The differential tests against the kept reference
# models (internal/difftest's seed walk) run here at their full count
# and nowhere else in this gate: the checks below leave them out. The
# root package's Examples (example_test.go) run here too, their printed
# output checked against their // Output: blocks.
test:
	$(GO) test ./...

# The recorded mutants (internal/difftest/testdata/mutants), each applied
# with `go test -overlay` — the tree is never touched — and run against
# the tests it names: every one must be caught, printing its recorded
# failure (for a walked model, its seed and step). The runner's own
# test plants a mutant that changes nothing (survived) and one whose
# snippet is in no file (rotted). Tier-1 and check leave it out: without
# MUTANTS=1 both tests skip.
mutants:
	MUTANTS=1 $(GO) test -count=1 -timeout 30m -run 'TestMutants|TestMutantVerdicts' -v ./internal/difftest

# Every allocation pin, uncached and once: each is a Test…Allocs that
# counts with testing.AllocsPerRun where every run does the same work,
# and with MemStats where runs share amortised work (a sync, a device or
# buffer growth: the log's append path, Store.Update, a transaction, a
# query), since AllocsPerRun truncates a fraction to a whole number — a
# page read or a run over the wire (0), a pool hit (0), a pool miss over
# a local device (0), an untraced device read (0), an elevator step (0),
# Store.Get (1), Decode (1), a transaction pair (≤ 1.01) and
# Store.Update with a log attached (≤ 0.01), a record of the redo (1,
# its image), an appended log image and an appended delta (each
# ≤ 0.05), a replica's apply of a shipped image and delta (0), a query's
# allocations and bytes per assembled object (a component chunk and
# children, 2.07 and 2.06; 3.48 with the shared table on; 2.12 through
# the prefetched lanes of a two-member router), the disabled
# tracing path and a routed page read (0, with and without a fresh
# replica). The race detector's pass skips them. Then one iteration of the transaction
# benchmark, with -benchmem, so that it cannot rot unbuilt.
alloc-check:
	$(GO) test -count=1 -run 'Allocs$$' ./...
	$(GO) test -run '^$$' -bench=StoreTransact -benchtime=1x -benchmem ./internal/object

# The elevator's scaling benchmark, one iteration, so that it cannot
# rot unbuilt or panic unseen. The scheduler's tests run in test: the
# differential test against the sorted-slice reference model (which
# also holds a lane's run to that many single picks, no page twice, no
# dead reference, nothing of an earlier batch reachable behind a
# shorter one; the lane elevators also against scripted arm heads), the
# 0-alloc pin on a scheduling step and the step-cost-is-flat check;
# where each lane sweeps from: one lane over one arm is the global
# elevator (stripe and router), four lanes over four striped arms seek
# less than it, and HeadOf is each arm's global page on Striped and on
# the router (no lock left held).
sched-check:
	$(GO) test -run '^$$' -bench=SchedulerElevator -benchtime=1x ./internal/assembly

# The pool's victim heap and page table, uncached: the whole package
# but its three differential tests, which test has run at their full
# count (against the two-scan reference model, a Go map for the table,
# and the loop of single fixes; 10 000 seeded sequences each, the
# invariant checker after every step) — the pool's error paths, the
# 0-alloc pin on the hit path, the miss-cost-is-flat check (in the
# pool's size and in the device's) — then one iteration of the scaling
# benchmark and of the resident OID directory's (the other lookup under
# every resolved reference) so that neither can rot unbuilt or panic
# unseen. The race detector's pass over the package, models included
# (400 sequences each), is race-core's.
BUFFER_MODELS = TestVictimHeapMatchesScan|TestPageTableMatchesMap|TestFixBatchMatchesFixLoop
buffer-check:
	$(GO) test -count=1 -skip '$(BUFFER_MODELS)' ./internal/buffer
	$(GO) test -run '^$$' -bench='FixMiss|FixHit' -benchtime=1x ./internal/buffer
	$(GO) test -run '^$$' -bench=LocatorLookup -benchtime=1x ./internal/object

# The window slot's arena: one iteration of the benchmarks that report
# allocs/op and B/op, with -benchmem so that the log shows them, and so
# that they cannot rot unbuilt. The arena's tests run in test: the
# lifetime tests (an emitted object, adopted or not, and an aborted one
# are collectable while the operator runs, a shared leaf does not pin
# its first object, a dead item's reference chunk is never recycled),
# the differential test against the goldens recorded before the arena,
# the allocations- and bytes-per-object pins, the sizes of the structs
# the chunks are arrays of (Instance, component, Ref, workItem) and of
# the chunks, the inline and wide field shapes through the operator,
# slot chunks that are never reused, and what outlives a query (the
# elevators' free leaves, zeroed and capped, and the pool's lane loads):
# a query closed early then a full one on the same pool under every
# scheduler, a closed query's context collectable, eight queries at once
# on one pool; and every exit of a small traced query (each refusal of
# Open, a failing input, a cancel before the first Next, a permanent
# fault at each device read under each fault policy, Close twice)
# handing back its span, pins, quota, workers, leaves and context. The
# race detector's pass over the package is race-core's.
asm-check:
	$(GO) test -run '^$$' -bench='AssembleDeep|AssembleScan|AssembleShared|AssembleLanes' -benchtime=1x -benchmem ./internal/assembly

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

# The one head model and the log's write path over it, uncached:
# Allocate's bounds on every device, the 0-alloc pin on an untraced read
# and the readers-against-a-scraper storm; the one-pass CRC against the
# two passes, the allocations-per-appended-image pin and the one-growth
# redo; the update workload's delta-log epoch audit replayed onto an
# empty device, the apply rule's and AppendDelta's refusals, the clean
# end within a header of a page's end and the
# allocations-per-appended-delta pin — then the log's tests once more
# under the race detector, with its two differential tests (400
# sequences each): the WAL writer (one growth per sync, whole pages from
# the buffer, one CRC pass per image) against the parent's, over
# sequences with write faults and crash cuts, and the delta log against
# a log of full images, over sequences of gets, same-length and resizing
# updates, inserts, flushes and syncs, the data device crashed at a
# write ordinal, clean or torn, and both recovered byte-identical —
# then one iteration of the per-read cost benchmark and of the log's two
# so that none can rot unbuilt. The three differential tests, the head
# model's against the three bookkeepers it replaced (the chunked memory
# medium's growth included) and the log's two, run at their full count
# (10 000 seeded sequences each) in test; the race detector's pass over
# internal/disk is race-core's.
DISK_TESTS = TestAllocateBounds|TestUntracedReadAllocs|TestArmConcurrentScrape
WAL_TESTS = TestStampSumMatchesTwoPasses|TestAppendSyncAllocs|TestApplyRecordGrowsOnce|TestDeltaLogAudit|TestApplyRecordRefusals|TestAppendDeltaRefusals|TestCleanEndNearPageEnd|TestAppendDeltaSyncAllocs
WAL_MODELS = TestSyncMatchesModel|TestDeltaMatchesFullImages
WAL_PKGS = ./internal/wal ./internal/page
disk-check:
	$(GO) test -count=1 -run '$(DISK_TESTS)' ./internal/disk
	$(GO) test -count=1 -run '$(WAL_TESTS)' $(WAL_PKGS)
	$(GO) test -race -count=1 -run '$(WAL_TESTS)|$(WAL_MODELS)' $(WAL_PKGS)
	$(GO) test -run '^$$' -bench=MetricsOverhead -benchtime=1x ./internal/disk
	$(GO) test -run '^$$' -bench='AppendSync|Recover' -benchtime=1x ./internal/wal

# A batch's runs out together, each run one frame, and every frame one
# write (a write's images in the same writev), uncached: the lane
# workers' lifetime on every way a query can end, the byte-for-byte
# comparison of every frame with the encoders it replaced, the frame
# reader under every split of its input, a frame that is no request
# answered with one error frame and its connection closed, the late
# answer that must leave a returned buffer alone, a run the server or
# the client refuses read page by page, when a read moves the client's
# arm (page reads failed or refused, a failed run), every way the router
# can send a run, every way the router can send a write run, a write run
# the client refuses written page by page, a bulk write that leaves no
# buffer of its size kept on either side, Dial refusing a page size no frame can
# carry, the storm of runs under a fleet that changes, the storm of
# pipelined reads past a stalled one on the page server's kept handlers,
# a follower of a log of images and deltas ending byte-identical to its
# primary and one primed past a gap stopping at it, and the allocation
# pins (one page and one run read over the wire, the replica-less router
# read, the pool's hit, a replica's apply of a shipped image and delta)
# — then one iteration of the two round-trip benchmarks (a page, a run)
# so that they cannot rot unbuilt. The two differential tests of the
# path, Pool.FixBatch against the loop of single fixes it replaced
# (10 000 seeded sequences of batches of runs, with lanes and without,
# over a device that reads a run in one call and one that does not) and
# a run of writes against the loop of page writes it stands for over a
# Sim, a client and a router (device bytes, arm stats, every verdict;
# 12 seeds per stack and case), run at their full count in test. The
# race detector's passes over these packages are race-core's (buffer,
# assembly, and disk for the write runs), net-chaos-test's (pagesvc),
# shard-chaos-test's (shard) and fleet-chaos-test's (fleet, where the
# storm runs).
WIRE_TESTS = TestFixHitAllocs|TestLaneWorkersStopOnEveryExit|TestFrameBytes|TestFrameReaderSplits|TestMalformedFrameClosesConn|TestLateResponseLeavesReturnedBufferAlone|TestWireReadAllocs|TestWireReadRunAllocs|TestReadRunFallsBackPageByPage|TestReadArmBookings|TestRoutedReadAllocs|TestRouterRunPaths|TestOverlappedBatchStorm|TestKeptHandlersStorm|TestReplicaFollowsDeltas|TestReplicaStopsAtDeltaGap|TestReplicaApplyAllocs|TestRouterWriteRunPaths|TestWriteRunFallsBackPageByPage|TestBulkWriteKeepsNoBuffer|TestDialRefusesPageSize
WIRE_PKGS = ./internal/buffer ./internal/assembly ./internal/pagesvc ./internal/shard ./internal/fleet
wire-check:
	$(GO) test -count=1 -run '$(WIRE_TESTS)' $(WIRE_PKGS)
	$(GO) test -run '^$$' -bench=WireRead -benchtime=1x ./internal/pagesvc

# The generator's one-write load: one iteration of the build
# benchmark, which reports device round trips per page for the
# scan-local and scan-sharded shapes (a write run a fleet takes whole
# counts as one). The load's tests run in test: every database of a grid
# (clusterings, sharing, shapes, headroom, pool sizes, over a
# Sim and over a two-member loopback fleet) built with heap.Load and
# with the pool path it replaced (heap.Create, Store.PutAt page by page,
# EvictAll), device bytes and every OID's RID identical; a failed first,
# middle and last page write, on a Sim and on a fleet member, reported
# with the page it names.
gen-check:
	$(GO) test -run '^$$' -bench=Build -benchtime=1x ./internal/gen

# The benchmark is a module of its own (benchmark/go.mod), so build,
# vet and test above never compile it: an internal/* signature change
# that breaks it would show only when the driver runs it. This builds
# and tests it in place, touching no file under benchmark/.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

# The concurrency-sensitive packages under the race detector — the
# layers a live metrics scraper reads while workers mutate, the devices
# whose Head a scheduling step loads without their mutex, and the seed
# walk, whose count rule reads the race flag (CI's second job;
# test-race covers everything but takes much longer). This is the one
# race pass of these packages' tests in CI, the check job's checks
# included; the chaos tests are left to chaos-test.
race-core:
	$(GO) test -race -skip '$(CHAOS_TESTS)' ./internal/trace ./internal/metrics ./internal/buffer ./internal/volcano ./internal/serve ./internal/disk ./internal/assembly ./internal/difftest

# The query-lifecycle chaos tests under the race detector: concurrent
# queries with random-point cancellation, goroutine-leak and
# pin/reservation-leak checks, and per-query three-way agreement.
# -count=2 reruns them so cross-run state leaks surface too. race-core
# and suite-smoke skip them.
CHAOS_TESTS = TestChaos|TestCancel|TestDeadline|TestExchangeCancellation|TestExchangeDeadline|TestTwoQueriesTinyPool|TestQuery
CHAOS_PKGS = ./internal/suite ./internal/assembly ./internal/volcano ./internal/buffer ./internal/serve
chaos-test:
	$(GO) test -race -count=2 -run '$(CHAOS_TESTS)' $(CHAOS_PKGS)

# The networked-page-service chaos suite under the race detector:
# replica crash/reconnect convergence, client reconnects under a
# severed connection, promotion and fencing, and a closed client that
# never re-dials — all with goroutine-leak checks. (Killing the primary
# mid-query and failing over to its replica are the shard router's
# decisions; their proofs run over a networked fleet in internal/fleet,
# raced by fleet-chaos-test.) -count=2 reruns them so cross-run state
# leaks surface too.
net-chaos-test:
	$(GO) test -race -count=2 ./internal/pagesvc

# The shard router's tests under the race detector: breaker trips and
# half-open probes, failover under the staleness guard, the per-query
# retry budget, member errors, promotion and pending routing, and every
# way a run or a write run is sent. The end-to-end proofs over a sharded
# fleet run in internal/fleet, on its one rig (fleet-chaos-test).
# -count=2 reruns for cross-run state leaks.
shard-chaos-test:
	$(GO) test -race -count=2 ./internal/shard

# Every end-to-end proof over a sharded fleet, each on the one rig
# (internal/fleet/rig_test.go), under the race detector: kill one
# shard's primary mid-query and finish byte-identical via its replica
# (breaker trip + LSN-guarded failover) — over a three-member fleet and
# over a one-member fleet, which is the single page service with a
# replica; brown out a shard with no replica to check degraded-mode
# assembly skips exactly the poisoned objects under a per-query retry
# budget; kill a member's primary and hold it down until the controller
# promotes its WAL-shipped replica to writable (epoch-fenced,
# byte-identical queries, three-way counter agreement); live-reshard a
# fourth member in mid-query (exactly the rendezvous delta moves); the
# overlapped-batch storm (runs in flight while members die, revive and
# are promoted); and crash the migrator at every WAL ownership-record
# write point and check recovery converges to exactly one owner per
# range. -count=2 reruns for cross-run state leaks.
fleet-chaos-test:
	$(GO) test -race -count=2 ./internal/fleet

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

# The CI gate for the scenario suite: the smoke subset under the race
# detector, plus the suite package's own tests but the chaos tests
# (chaos-test's), inside a time budget.
suite-smoke:
	$(GO) test -race -timeout 5m -skip '$(CHAOS_TESTS)' ./internal/suite
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
