GO ?= go

.PHONY: all check build vet test alloc-check alloc-sites sched-check buffer-check asm-check disk-check wire-check gen-check bench-check test-race race-core chaos-test net-chaos-test shard-chaos-test fleet-chaos-test crash-test fuzz-smoke bench figures suite suite-smoke suite-check trace-demo tracez-smoke serve-demo examples cover loc clean

all: check

# The fast gate: what CI's main job runs on every push.
check: build vet test alloc-check sched-check buffer-check asm-check disk-check wire-check gen-check

build:
	$(GO) build ./...

# go vet, then gofmt over every Go file in the tree (benchmark/
# included): any file gofmt would rewrite fails the gate. Last, every
# package under internal/ must have a non-test importer in this module
# or in benchmark/: a package only tests reach is code nothing runs.
# internal/leakcheck, the tests' goroutine-leak helper, is the one
# exception.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@imported=$$({ $(GO) list -f '{{join .Imports "\n"}}' ./... && cd benchmark && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u); \
	orphans=$$($(GO) list ./internal/... | grep -vx 'revelation/internal/leakcheck' | while read p; do echo "$$imported" | grep -qx "$$p" || echo "$$p"; done); \
	if [ -n "$$orphans" ]; then echo "no non-test importer:"; echo "$$orphans"; exit 1; fi

test:
	$(GO) test ./...

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
# ShardPrefetch's lanes over two striped devices), the disabled
# tracing path and a routed page read (0, with and without a fresh
# replica). The race detector's pass skips them. Then one iteration of the transaction
# benchmark, with -benchmem, so that it cannot rot unbuilt.
alloc-check:
	$(GO) test -count=1 -run 'Allocs$$' ./...
	$(GO) test -run '^$$' -bench=StoreTransact -benchtime=1x -benchmem ./internal/object

# The elevator's pending set, uncached: the differential test against
# the sorted-slice reference model (which also holds a lane's run to
# that many single picks, no page twice, no dead reference, nothing of
# an earlier batch reachable behind a shorter one; the lane elevators
# also against scripted arm heads), the 0-alloc pin on a scheduling step
# and the step-cost-is-flat check; where each lane sweeps from: one lane
# over one arm is the global elevator (stripe and router), four lanes
# over four striped arms seek less than it, and HeadOf is each arm's
# global page on Striped and on the router (no lock left held); then one
# iteration of the scaling benchmark so that it cannot rot unbuilt or
# panic unseen.
sched-check:
	$(GO) test -count=1 -run 'TestPendingSetMatchesSortedSlice|TestElevatorStep|TestServedRefsUnreachable|TestOneLaneIsTheGlobalElevator|TestMultiElevatorBeatsGlobalElevatorOnStripes' ./internal/assembly
	$(GO) test -count=1 -run 'TestStripedHeadOf' ./internal/disk
	$(GO) test -count=1 -run 'TestRouterHeadOf' ./internal/shard
	$(GO) test -run '^$$' -bench=SchedulerElevator -benchtime=1x ./internal/assembly

# The pool's victim heap and page table, uncached: the whole package —
# the differential tests against the two-scan reference model and, for
# the table, against a Go map (10 000 seeded sequences each, the
# invariant checker after every step), the pool's error paths, the
# 0-alloc pin on the hit path, the miss-cost-is-flat check (in the pool's
# size and in the device's) — then once more under the race detector
# (400 sequences, no timing test), then one iteration of the scaling
# benchmark and of the resident OID directory's (the other lookup under
# every resolved reference) so that neither can rot unbuilt or panic
# unseen.
buffer-check:
	$(GO) test -count=1 ./internal/buffer
	$(GO) test -race -count=1 ./internal/buffer
	$(GO) test -run '^$$' -bench='FixMiss|FixHit' -benchtime=1x ./internal/buffer
	$(GO) test -run '^$$' -bench=LocatorLookup -benchtime=1x ./internal/object

# The window slot's arena, uncached: the lifetime tests (an emitted
# object, adopted or not, and an aborted one are collectable while the
# operator runs, a shared leaf does not pin its first object, a dead
# item's reference chunk is never recycled), the differential test against the goldens recorded before
# the arena, the allocations- and bytes-per-object pins, the sizes of
# the structs the chunks are arrays of (Instance, component, Ref,
# workItem) and of the chunks, the inline and wide field shapes through
# the operator, slot chunks that are never reused, and what outlives a
# query (the elevators' free leaves, zeroed and capped, and the pool's
# lane loads): a query closed early then a full one on the same pool
# under every scheduler, a closed query's context collectable, eight
# queries at once on one pool — then once more
# under the race detector, then one iteration of the benchmarks
# that report allocs/op and B/op, with -benchmem so that the log shows
# them, and so that they cannot rot unbuilt.
ASM_TESTS = TestEmittedObjectCollectedWhileRunning|TestAdoptedObjectCollectedWhileRunning|TestSharedLeafDoesNotPinItsFirstObject|TestDeadItemsChunksNotRecycled|TestDeadItemCollectedWhileRunning|TestArenaMatchesParentGoldens|TestAssembleAllocs|TestArenaStructSizes|TestArenaShapes|TestSlotsComeInChunks|TestReuseLeaksNoState|TestClosedQueryContextCollected|TestFreeLeavesCapped|TestConcurrentQueriesShareOnePool
asm-check:
	$(GO) test -count=1 -run '$(ASM_TESTS)' ./internal/assembly
	$(GO) test -race -count=1 -run '$(ASM_TESTS)' ./internal/assembly
	$(GO) test -run '^$$' -bench='AssembleDeep|AssembleScan|AssembleShared|AssembleLanes' -benchtime=1x -benchmem ./internal/assembly

# Where one query's allocations come from, site by site: one iteration
# each of BenchmarkAssembleDeep, BenchmarkAssembleScan,
# BenchmarkAssembleShared (the shared table on), BenchmarkAssembleLanes
# (ShardPrefetch over two striped devices) and BenchmarkStoreTransact (32 pairs and their commit), with every
# allocation sampled (-memprofilerate 1), then pprof's flat objects and
# bytes per source line under the query or the transaction — the
# database build, the input items and the store's first transaction
# made before it left out. EXPERIMENTS.md "The allocation floor, second
# pass", "One allocation per object read", "Two allocations per
# complex object" and "What outlives a query" hold its tables. The
# profiles and the test binaries go to a temporary directory that is
# removed.
alloc-sites:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	sites() { \
		pkg=$$1 b=$$2 n=$$3 focus=$$4 ignore=$$5; \
		$(GO) test -trimpath -run '^$$' -bench "^Benchmark$$b$$" -benchtime=$$n -benchmem -memprofilerate 1 \
			-memprofile "$$d/$$b.prof" -o "$$d/$$pkg.test" ./internal/$$pkg | grep '^Benchmark' || return 1; \
		for idx in alloc_objects alloc_space; do \
			$(GO) tool pprof -sample_index=$$idx -focus=$$focus -ignore=$$ignore -nodefraction=0 -lines -top \
				"$$d/$$pkg.test" "$$d/$$b.prof" 2>/dev/null | awk -v idx=$$idx '/flat%/ {p = 1; print "  " idx; next} p && $$1 != "0" && $$1 != "0B"'; \
		done; \
	}; \
	sites assembly AssembleDeep 1x benchAssemble rootItems && \
	sites assembly AssembleScan 1x benchAssemble rootItems && \
	sites assembly AssembleShared 1x benchAssemble rootItems && \
	sites assembly AssembleLanes 1x benchAssemble rootItems && \
	sites object StoreTransact 1x BenchmarkStoreTransact newTransactor

# The one head model and the log's write path over it, uncached: the
# differential test of disk.Arm and the merged Sim against the three
# bookkeepers they replaced, the chunked memory medium's growth included
# (10 000 seeded sequences per pair; 400 under -race), Allocate's bounds
# on every device, the 0-alloc pin on an untraced read and the
# readers-against-a-scraper storm; then the differential test of the
# WAL writer (one growth per sync, whole pages from the buffer, one CRC
# pass per image) against the parent's (10 000 sequences with write
# faults and crash cuts; 400 under -race), the one-pass CRC against the
# two passes, the allocations-per-appended-image pin and the one-growth
# redo; the delta log against a log of full images (10 000 sequences of
# gets, same-length and resizing updates, inserts, flushes and syncs,
# the data device crashed at a write ordinal, clean or torn, and both
# recovered byte-identical; 400 under -race), the update workload's
# epoch audit replayed onto an empty device, the apply rule's and
# AppendDelta's refusals, the clean end within a header of a page's end
# and the allocations-per-appended-delta pin — then all once more under
# the race detector, then one iteration of the per-read cost benchmark
# and of the log's two so that none can rot unbuilt.
DISK_TESTS = TestArmMatchesOldBookkeepers|TestAllocateBounds|TestUntracedReadAllocs|TestArmConcurrentScrape
WAL_TESTS = TestSyncMatchesModel|TestStampSumMatchesTwoPasses|TestAppendSyncAllocs|TestApplyRecordGrowsOnce|TestDeltaMatchesFullImages|TestDeltaLogAudit|TestApplyRecordRefusals|TestAppendDeltaRefusals|TestCleanEndNearPageEnd|TestAppendDeltaSyncAllocs
disk-check:
	$(GO) test -count=1 -run '$(DISK_TESTS)' ./internal/disk
	$(GO) test -count=1 -run '$(WAL_TESTS)' ./internal/wal ./internal/page
	$(GO) test -race -count=1 -run '$(DISK_TESTS)' ./internal/disk
	$(GO) test -race -count=1 -run '$(WAL_TESTS)' ./internal/wal ./internal/page
	$(GO) test -run '^$$' -bench=MetricsOverhead -benchtime=1x ./internal/disk
	$(GO) test -run '^$$' -bench='AppendSync|Recover' -benchtime=1x ./internal/wal

# A batch's runs out together, each run one frame, and every frame one
# write (a write's images in the same writev), uncached: the
# differential test of Pool.FixBatch against the loop of single fixes it
# replaced (10 000 seeded sequences of batches of runs, with lanes and
# without, over a device that reads a run in one call and one that does
# not; 400 under -race), the lane workers' lifetime on every way a query
# can end, the byte-for-byte comparison of every frame with the encoders
# it replaced, the frame reader under every split of its input, a frame
# that is no request answered with one error frame and its connection
# closed, the late answer that must leave a returned buffer alone, a run
# the server or the client refuses read page by page, when a read moves
# the client's arm (page reads failed or refused, a failed run), every
# way the router can send a run,
# a run of writes against the loop of page writes it stands for over a
# Sim, a client and a router (device bytes, arm stats, every verdict),
# every way the router can send a write run, a write run the client
# refuses written page by page, a bulk write that leaves no buffer of its
# size kept on either side, Dial refusing a page size no frame can
# carry, the storm of runs under a fleet that changes, the storm of
# pipelined reads past a stalled one on the page server's kept handlers,
# a follower of a log of images and deltas ending byte-identical to its
# primary and one primed past a gap stopping at it, and the allocation
# pins (one page and one run read over the wire, the replica-less router
# read, the pool's hit, a replica's apply of a shipped image and delta)
# — then once more under the race detector, then one iteration of the
# two round-trip benchmarks (a page, a run) so that they cannot rot
# unbuilt.
WIRE_TESTS = TestFixBatchMatchesFixLoop|TestFixHitAllocs|TestLaneWorkersStopOnEveryExit|TestFrameBytes|TestFrameReaderSplits|TestMalformedFrameClosesConn|TestLateResponseLeavesReturnedBufferAlone|TestWireReadAllocs|TestWireReadRunAllocs|TestReadRunFallsBackPageByPage|TestReadArmBookings|TestRoutedReadAllocs|TestRouterRunPaths|TestOverlappedBatchStorm|TestKeptHandlersStorm|TestReplicaFollowsDeltas|TestReplicaStopsAtDeltaGap|TestReplicaApplyAllocs|TestWritePagesMatchesWritePage|TestRouterWriteRunPaths|TestWriteRunFallsBackPageByPage|TestBulkWriteKeepsNoBuffer|TestDialRefusesPageSize
WIRE_PKGS = ./internal/buffer ./internal/assembly ./internal/pagesvc ./internal/shard ./internal/disk
wire-check:
	$(GO) test -count=1 -run '$(WIRE_TESTS)' $(WIRE_PKGS)
	$(GO) test -race -count=1 -run '$(WIRE_TESTS)' $(WIRE_PKGS)
	$(GO) test -run '^$$' -bench=WireRead -benchtime=1x ./internal/pagesvc

# The generator's one-write load, uncached: every database of a grid
# (clusterings, sharing, shapes, headroom, pool sizes, over a
# Sim and over a two-member loopback fleet) built with heap.Load and
# with the pool path it replaced (heap.Create, Store.PutAt page by page,
# EvictAll), device bytes and every OID's RID identical; a failed first,
# middle and last page write, on a Sim and on a fleet member, reported
# with the page it names — then one iteration of the build benchmark,
# which reports device round trips per page for the scan-local and
# scan-sharded shapes (a write run a fleet takes whole counts as one).
gen-check:
	$(GO) test -count=1 -run 'TestLoadMatchesPoolLoad|TestBuildWriteFault' ./internal/gen
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
# layers a live metrics scraper reads while workers mutate, and the
# devices whose Head a scheduling step loads without their mutex
# (CI's second job; test-race covers everything but takes much longer).
race-core:
	$(GO) test -race ./internal/trace ./internal/metrics ./internal/buffer ./internal/volcano ./internal/serve ./internal/disk ./internal/assembly

# The query-lifecycle chaos tests under the race detector: concurrent
# queries with random-point cancellation, goroutine-leak and
# pin/reservation-leak checks, and per-query three-way agreement.
# -count=2 reruns them so cross-run state leaks surface too.
chaos-test:
	$(GO) test -race -count=2 -run 'TestChaos|TestCancel|TestDeadline|TestExchangeCancellation|TestExchangeDeadline|TestTwoQueriesTinyPool|TestQuery' ./internal/suite ./internal/assembly ./internal/volcano ./internal/buffer ./internal/serve

# The networked-page-service chaos suite under the race detector:
# replica crash/reconnect convergence, client reconnects under a
# severed connection, promotion and fencing, and a closed client that
# never re-dials — all with goroutine-leak checks. (Killing the primary
# mid-query and failing over to its replica are the shard router's
# decisions; their proofs live in shard-chaos-test.) -count=2 reruns
# them so cross-run state leaks surface too.
net-chaos-test:
	$(GO) test -race -count=2 ./internal/pagesvc

# The sharded-fleet chaos suite under the race detector: kill one
# shard's primary mid-query and finish byte-identical via its replica
# (breaker trip + LSN-guarded failover) — over a three-member fleet and
# over a one-member fleet, which is the single page service with a
# replica; and brown out a shard with no replica to check degraded-mode
# assembly skips exactly the poisoned objects under a per-query retry
# budget. -count=2 reruns for cross-run state leaks.
shard-chaos-test:
	$(GO) test -race -count=2 ./internal/shard

# The fleet control-plane chaos suite under the race detector: kill a
# member's primary and hold it down until the controller promotes its
# WAL-shipped replica to writable (epoch-fenced, byte-identical
# queries, three-way counter agreement), live-reshard a fourth member
# in mid-query (exactly the rendezvous delta moves), and crash the
# migrator at every WAL ownership-record write point and check
# recovery converges to exactly one owner per range. -count=2 reruns
# for cross-run state leaks.
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
# detector, plus the suite package's own tests, inside a time budget.
suite-smoke:
	$(GO) test -race -timeout 5m ./internal/suite
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

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/genealogy
	$(GO) run ./examples/cad
	$(GO) run ./examples/stacked
	$(GO) run ./examples/parallel
	$(GO) run ./examples/reveal

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
