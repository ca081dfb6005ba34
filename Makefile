GO ?= go

.PHONY: all check build vet test sched-check buffer-check asm-check disk-check wire-check bench-check test-race race-core chaos-test net-chaos-test shard-chaos-test fleet-chaos-test crash-test fuzz-smoke bench figures suite suite-smoke suite-check trace-demo tracez-smoke serve-demo examples cover loc clean

all: check

# The fast gate: what CI's main job runs on every push.
check: build vet test sched-check buffer-check asm-check disk-check wire-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The elevator's pending set, uncached: the differential test against
# the sorted-slice reference model (which also holds a lane's run to
# that many single picks, no page twice, no dead reference, nothing of
# an earlier batch reachable behind a shorter one), the 0-alloc pin on a
# scheduling step and the step-cost-is-flat check, then one iteration of
# the scaling benchmark so that it cannot rot unbuilt or panic unseen.
sched-check:
	$(GO) test -count=1 -run 'TestPendingSetMatchesSortedSlice|TestElevatorStep|TestServedRefsUnreachable' ./internal/assembly
	$(GO) test -run '^$$' -bench=SchedulerElevator -benchtime=1x ./internal/assembly

# The pool's victim heap and page table, uncached: the whole package —
# the differential tests against the two-scan reference model and, for
# the table, against a Go map (10 000 seeded sequences each, the
# invariant checker after every step), the FixNew error paths, the
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
# object is collectable while the operator runs, a shared leaf does not
# pin its first object, a dead item's reference chunk is never
# recycled), the differential test against the goldens recorded before
# the arena, and the allocations-per-object pins — then once more under
# the race detector, then one iteration of the two benchmarks that
# report allocs/op and B/op so that they cannot rot unbuilt.
ASM_TESTS = TestEmittedObjectCollectedWhileRunning|TestSharedLeafDoesNotPinItsFirstObject|TestDeadItemsChunksNotRecycled|TestArenaMatchesParentGoldens|TestAssembleAllocs
asm-check:
	$(GO) test -count=1 -run '$(ASM_TESTS)' ./internal/assembly
	$(GO) test -race -count=1 -run '$(ASM_TESTS)' ./internal/assembly
	$(GO) test -run '^$$' -bench='AssembleDeep|AssembleScan' -benchtime=1x ./internal/assembly

# The one head model, uncached: the differential test of disk.Arm and
# the merged Sim against the three bookkeepers they replaced (10 000
# seeded sequences per pair; 400 under -race), Allocate's bounds on both
# media, the 0-alloc pin on an untraced read and the readers-against-a-
# scraper storm — then once more under the race detector, then one
# iteration of the per-read cost benchmark so that it cannot rot unbuilt.
DISK_TESTS = TestArmMatchesOldBookkeepers|TestAllocateBounds|TestUntracedReadAllocs|TestArmConcurrentScrape
disk-check:
	$(GO) test -count=1 -run '$(DISK_TESTS)' ./internal/disk
	$(GO) test -race -count=1 -run '$(DISK_TESTS)' ./internal/disk
	$(GO) test -run '^$$' -bench=MetricsOverhead -benchtime=1x ./internal/disk

# A batch's runs out together, each run one frame, and every frame one
# write, uncached: the differential test of Pool.FixBatch against the
# loop of single fixes it replaced (10 000 seeded sequences of batches of
# runs, with lanes and without, over a device that reads a run in one
# call and one that does not; 400 under -race), the lane workers'
# lifetime on every way a query can end, the byte-for-byte comparison of
# every frame with the encoders it replaced, the frame reader under
# every split of its input, the late answer that must leave a returned
# buffer alone, a run the peer refuses read page by page, every way the
# router can send a run, the storm of runs under a fleet that changes,
# and the allocation pins (one page and one run read over the wire, the
# replica-less router read, the pool's hit) — then once more under the
# race detector, then one iteration of the two round-trip benchmarks
# (a page, a run) so that they cannot rot unbuilt.
WIRE_TESTS = TestFixBatchMatchesFixLoop|TestFixHitAllocs|TestLaneWorkersStopOnEveryExit|TestFrameBytes|TestFrameReaderSplits|TestLateResponseLeavesReturnedBufferAlone|TestWireReadAllocs|TestWireReadRunAllocs|TestReadRunFallsBackPageByPage|TestReplicaLessReadAllocs|TestRouterRunPaths|TestOverlappedBatchStorm
WIRE_PKGS = ./internal/buffer ./internal/assembly ./internal/pagesvc ./internal/shard
wire-check:
	$(GO) test -count=1 -run '$(WIRE_TESTS)' $(WIRE_PKGS)
	$(GO) test -race -count=1 -run '$(WIRE_TESTS)' $(WIRE_PKGS)
	$(GO) test -run '^$$' -bench=WireRead -benchtime=1x ./internal/pagesvc

# The benchmark is a module of its own (benchmark/go.mod), so build,
# vet and test above never compile it: an internal/* signature change
# that breaks it would show only when the driver runs it. This builds
# and tests it in place, touching no file under benchmark/.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

# The concurrency-sensitive packages under the race detector — the
# layers a live metrics scraper reads while workers mutate (CI's
# second job; test-race covers everything but takes much longer).
race-core:
	$(GO) test -race ./internal/trace ./internal/metrics ./internal/buffer ./internal/volcano ./internal/serve

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
# mid-query and hedging a straggler are the shard router's decisions;
# their proofs live in shard-chaos-test.) -count=2 reruns them so
# cross-run state leaks surface too.
net-chaos-test:
	$(GO) test -race -count=2 ./internal/pagesvc

# The sharded-fleet chaos suite under the race detector: kill one
# shard's primary mid-query and finish byte-identical via its replica
# (breaker trip + LSN-guarded failover) — over a three-member fleet and
# over a one-member fleet, which is the single page service with a
# replica; hedge straggling reads to the replica against seeded stalls
# (stale replica never a target, the losing leg never touches the
# caller's buffer); and brown out a shard with no replica to check
# degraded-mode assembly skips exactly the poisoned objects under a
# per-query retry budget. -count=2 reruns for cross-run state leaks.
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
# tier-1 default: every write ordinal is crashed twice (clean and
# torn), recovered, and verified. CRASH_OPS scales the workload.
crash-test:
	CRASH_OPS=96 $(GO) test -run TestCrashPointSweep -v ./internal/wal

# A short coverage-guided fuzz of the slotted page (including the
# corruption op that tries to break the bounds checks), of the
# page-service wire header decoder (malformed frames must error, never
# panic or over-allocate; a read that decodes, of a page or of a run —
# seeded with runs of no page, of a ragged id list and off the device —
# is answered by a server with exactly the pages asked for or an error),
# of the object record decoder (Shape +
# DecodeInto must agree with Decode on every input), of the WAL
# reader (arbitrary bytes as a log: the scan ends, hands out only
# records inside the device, and allocates no more than the device
# holds), of the suite's config parser (scenarios or a file:line
# error, never a panic; what parses passes the validator's range
# checks) and of the template JSON loader (a template or an error, with a
# catalog and without, never a panic; what parses marshals and parses
# back to the same template).
fuzz-smoke:
	$(GO) test -fuzz=FuzzPageOps -fuzztime=10s ./internal/page
	$(GO) test -fuzz=FuzzProtoDecode -fuzztime=10s ./internal/pagesvc
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/object
	$(GO) test -fuzz=FuzzWALScan -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzParseScenarios -fuzztime=10s ./internal/suite
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
	$(GO) run ./cmd/asmsuite -suite core -v

# The CI gate for the scenario suite: the smoke subset under the race
# detector, plus the suite package's own tests, inside a time budget.
suite-smoke:
	$(GO) test -race -timeout 5m ./internal/suite
	$(GO) run -race ./cmd/asmsuite -suite smoke -out /dev/null -v

# The tracked trajectory is its own canonical form: every field of
# BENCH_core.json is a deterministic counter, so regenerating it must
# reproduce the checked-in file byte for byte. A diff here is a real
# behaviour change — rerun `make suite` and review it.
suite-check:
	$(GO) run ./cmd/asmsuite -suite core -out - | diff -u BENCH_core.json -

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

# Non-test Go lines outside benchmark/ — the number ROADMAP aim 2
# tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

clean:
	rm -f cover.out test_output.txt bench_output.txt db.pages db.manifest trace.jsonl
