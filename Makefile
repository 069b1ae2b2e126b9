GO ?= go

.PHONY: build test check loc chaos chaos-peer fuzz bench bench-build bench-compare bench-pair bench-gate serve-smoke peer-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-PR gate (run by CI): vet and build everything,
# then race-test the delegation transport and the packages built on it —
# ring (the shared slot/ring primitives), core (the DPS runtime), wire
# (the peer links), ffwd (the baseline), obs, mcd (the stores) and server (the
# front door) — whose correctness depends on concurrent access. bench-build
# goes first, because none of the root-module commands below compiles the
# benchmark module. The last two lines repeat, at three GOMAXPROCS settings,
# the concurrent data-structure suites and the tests of who runs an
# operation: the history checker (every operation applied once, in issue
# order, linearizable, with rows of peer senders through a PeerServer — two
# of them sharing each connection in one — and a row of threads that mark
# Idle after every call, as mcd sessions do), the
# races of a sender running operations toward an unattended locality —
# inline at issue and off its own ring — against a server woken by its park
# timeout and against a thread leaving its Idle mark, a peer server's burst
# crossing a ring (a panic counted once, fire-and-forget operations applied
# before the response), and two mcd sessions with no other thread, each
# locality served only by its session's waits or, between its calls, by the
# other session at issue (read-your-writes on each session's keys). The same
# line runs the two tests of what Drain reads off a thread's rings:
# TestDrainLeavesHeldCompletion (Drain waits only for fire-and-forget and
# given-up entries, never a synchronous completion the caller holds) and
# TestRingFullReapsWithoutDrain (the ring-full path reaps given-up entries on
# its own), two tests of the wire tier's ownership rules:
# TestResolvePublishesResults (a burst's results are written before its state
# flips to resolved) and TestServerAddrWhileServing (Addr leaves the dedup
# window to the connections), and TestPeerSendersShareConnection (threads
# whose links share a connection take its reader role in turn and read for
# each other: every completion resolves once, each thread reads its own
# writes, no peer stall). Their interleavings, and so their failures,
# depend on the host's CPU count (the lock-free skip list hung about one run
# in sixty on 2 CPUs only).
check: bench-build
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/ring/... ./internal/core/... ./internal/obs/... ./internal/ffwd/... ./internal/wire/... ./internal/mcd/... ./internal/server/...
	$(GO) test -count=20 -cpu 1,2,4 ./internal/skiplist ./internal/dpsds
	$(GO) test -race -count=20 -cpu 1,2,4 -run '^(TestRescueRaceParkTimeout|TestRescueRaceIdleBorrow|TestHistoryLinearizable|TestRemotePanicCrossesAsError|TestTwoSessionsRace|TestDrainLeavesHeldCompletion|TestRingFullReapsWithoutDrain|TestResolvePublishesResults|TestServerAddrWhileServing|TestPeerSendersShareConnection)$$' ./internal/core ./internal/mcd ./internal/wire

# bench-build vets and unit-tests benchmark/, which is a Go module of its own
# (dps/benchmark, replace dps => ../): the root module's build and tests never
# compile it, so a signature change in mcd, server, wire or core can break the
# repository's end-to-end benchmark without any other target noticing. -short
# skips its smoke run; nothing is measured here.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# loc prints the non-test Go lines of every package outside benchmark/, blank
# and //-only lines dropped, plus the total: the size ROADMAP.md quotes. See
# scripts/loc.sh.
loc:
	bash scripts/loc.sh

# chaos runs the fault-injection suite under the race detector: the
# injector's own tests plus the runtime's chaos and rescue scenarios
# (dropped claims, forced full rings, injected panics, wedged localities,
# shutdown under load, a sender running operations toward a locality whose
# every thread is parked or idle), the table tests of the one drain, the one
# wait loop and the one park, and the OpTimeout rule at a full ring through
# the wave (mcd) and the front door (server). Run it after touching any of
# them.
chaos:
	$(GO) test -race -timeout 120s ./internal/chaos/...
	$(GO) test -race -timeout 120s -run 'TestChaos|TestRescue|TestOne|TestWaveRingFull|TestWaveBackendTimeout' -v ./internal/core/... ./internal/mcd/... ./internal/server/...

# chaos-peer runs the peer-link fault suite under the race detector: the
# wire transport's full suite (reconnect after server restart, heartbeat
# dead-link detection, redial pacing, severed/slowed links via the
# DropFrame/SlowLink/PeerDown injector hooks) plus the core tier's
# remote/peer tests, including the kill/restart convergence proof (zero
# lost, zero duplicated completions); the wire suite holds the dedup
# window's table test. The wire suite runs three times: its resilience
# tests run at the link's production timings, and repetition is what
# guards their margins. Run it after touching the retry, heartbeat, dedup
# or redial paths.
chaos-peer:
	$(GO) test -race -timeout 300s -count=3 ./internal/wire/...
	$(GO) test -race -timeout 300s -run 'TestPeer|TestRemote' -v ./internal/core/...

# fuzz runs every fuzzer past its seed corpus for FUZZTIME each: the wire
# codec (FuzzDecodeFrame), the wire stream reader (FuzzFrameReader) and the
# memcached request parser with split reads (FuzzParse). go test -fuzz takes
# one target per package invocation, hence one line per fuzzer. A failing
# input lands in the package's testdata/fuzz/ and becomes a seed.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/server

# serve-smoke is the network front door's end-to-end gate: build
# cmd/mcdserver, start it, drive it for ~2s with the loadgen over real
# sockets (mcdbench -net exits nonzero on any protocol error), then
# SIGTERM and assert a clean drain. See scripts/serve_smoke.sh.
serve-smoke:
	bash scripts/serve_smoke.sh

# peer-smoke is the wire tier's end-to-end gate: two dpsnode processes
# with split partition ownership over real TCP, verifying cross-process
# read-your-writes clean and under chaos link faults, with a
# lost-completion watchdog (exit 2) and a clean serving-node drain.
# See scripts/peer_smoke.sh.
peer-smoke:
	bash scripts/peer_smoke.sh

bench:
	$(GO) run ./cmd/dpsbench -all

# bench-compare runs the delegation-latency benchmarks with allocation
# reporting: the core transport benchmark, the wire tier's loopback round trip
# (1 and 2 senders, at 1 and 2 Ps) beside its floor (a raw 128-byte TCP echo
# whose sender reads its own reply), a fire-and-forget stream over a peer's
# two partitions (with wire frames per operation), plus the root-level Fig. 3
# round-trip benchmark. Use it before and after transport changes; EXPERIMENTS.md
# records the reference numbers.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkDelegation' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPeerSyncRTT' -benchmem -cpu 1,2 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkLoopbackPingPong' -benchmem -cpu 1,2 ./internal/wire/
	$(GO) test -run '^$$' -bench 'BenchmarkPeerAsyncStream' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkFig3DelegationRoundTrip' -benchmem -benchtime=0.5s .

# bench-pair is the comparison a performance claim rests on: BASE (a git
# revision, cloned into a temporary directory) against this working tree,
# PAIRS alternating runs of benchmark/ per workload, seed i for pair i, with a
# gain / worse / unresolved verdict per workload and end-to-end metric. Four
# workloads at the defaults take about 35 minutes. MICRO=1 compares
# internal/core's delegation micro-benchmarks instead (a row per benchmark,
# ns/op, and a check that no 0 B/op row started allocating; about 15 minutes).
# JSON=<path> also writes the verdict table to that file as JSON.
# See scripts/bench_pair.sh.
WORKLOAD ?= all
PAIRS ?= 10
SECONDS ?= 18
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [MICRO=1] [WORKLOAD=<name>] [PAIRS=10] [SECONDS=18] [JSON=<path>]"; exit 2; }
	MICRO=$(MICRO) JSON=$(JSON) bash scripts/bench_pair.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SECONDS)

# bench-gate is bench-pair's micro mode as a gate: BASE against this working
# tree, 6 alternating pairs of internal/core's delegation micro-benchmarks.
# It fails on a row resolved worse (lost 6/6 pairs by more than the base's
# inter-quartile distance) and on a row whose B/op left 0. About 10 minutes.
# CI runs it with the pull request's base revision.
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<rev>"; exit 2; }
	MICRO=1 bash scripts/bench_pair.sh $(BASE) all 6
