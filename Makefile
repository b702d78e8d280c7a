# Convenience targets; `make ci` runs the exact checks the CI workflow
# runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race race-net chaos fuzz-smoke cover-gate vet fmt-check bench bench-smoke bench-baseline load-smoke load-baseline node-smoke reconfig-smoke reconfig-baseline trace-smoke sim-smoke time-lint ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-net exercises the asynchronous control plane — the per-board
# actor and the full swaps it serves, the node's read-loop/worker
# handoff and the polling client — under the race detector twice, to
# shake out scheduling-dependent interleavings that a single pass can
# miss.
race-net:
	$(GO) test -race -count=2 ./internal/leon/... ./internal/core/... ./internal/fpx/... ./internal/server/... ./internal/client/...

# chaos runs the deterministic fault-injection suite under the race
# detector: the fault engine and UDP relay tests in internal/sim (rule
# semantics, determinism, the relay between real sockets), the seeded
# end-to-end storms (full sessions through 20% loss + reorder + dup,
# bit-identical results required; TestControlPlaneUnderChaos through
# the relay, the rest on the simulated fabric), the scripted
# load-resumption and dedup regressions, the retry-span tracing check,
# the held-wait tests (a wait the server answers early is re-issued at
# the poll interval), the held reconfigure waits and the board's one
# wake (a deferred full swap lands as the run ends; a synthesis wake
# leaves a result wait parked until its answer is final), and the
# client retry/backoff tests.
chaos:
	$(GO) test -race ./internal/sim
	$(GO) test -race -run 'Chaos|Retransmit|Resume|Suppressed|Dedup|Backoff|Jitter|WaitResult|WaitHold|HeldWait|WaitReconfig|DeferredSwap|DeferredBehindRun|Wake|LoadError|WrongBoard|StaleSeq|Windowed|RetrySpans' \
		./internal/server/... ./internal/client/... ./internal/fpx/...

# fuzz-smoke gives each native fuzz target a few seconds on top of the
# committed corpus (testdata/fuzz); `go test -fuzz` grows it locally.
# FuzzParseFrame holds the in-place IPv4/UDP wrappers to a byte-wise
# reference verifier kept in its test file. FuzzSuperblockDiff holds
# the superblock dispatcher (StepN) to the single-step interpreter on
# arbitrary instruction words, batch sizes, stop addresses and cycle
# caps. FuzzDeliver feeds the client's delivery engine arbitrary reply
# datagrams and holds its datagram, metric and span accounting equal,
# and a load to succeeding only after an OK ack to one of its chunks.
# FuzzHandle feeds the CPP's one entry (fpx.Platform.Handle, on an
# emulator board) arbitrary datagram sequences from two peers and holds
# it to one reply per Liquid payload, echoed request headers, payloads
# answered or passed through, a bounded dedup window and reassembly
# buffers within the board's SRAM.
# The nightly workflow runs it.
fuzz-smoke:
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParsePacket -fuzztime 5s
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParseLoadChunk -fuzztime 5s
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParseRunReport -fuzztime 5s
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParseStartReq -fuzztime 5s
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParseStatusResp -fuzztime 5s
	$(GO) test ./internal/netproto/ -run '^$$' -fuzz FuzzParseFrame -fuzztime 5s
	$(GO) test ./internal/reconfig/ -run '^$$' -fuzz FuzzImageCodec -fuzztime 5s
	$(GO) test ./internal/cpu/ -run '^$$' -fuzz FuzzSuperblockDiff -fuzztime 5s
	$(GO) test ./internal/client/ -run '^$$' -fuzz FuzzDeliver -fuzztime 5s
	$(GO) test ./internal/fpx/ -run '^$$' -fuzz FuzzHandle -fuzztime 5s

# cover-gate fails if statement coverage of the transport packages —
# the ones the chaos work hardens — drops below the floor.
COVER_MIN ?= 80
COVER_PKGS = ./internal/client ./internal/server ./internal/reconfig \
	./internal/sim ./internal/leon ./internal/fpx

cover-gate:
	@set -e; for p in $(COVER_PKGS); do \
		$(GO) test -coverprofile=.cover.tmp $$p >/dev/null; \
		pct=$$($(GO) tool cover -func=.cover.tmp | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		rm -f .cover.tmp; \
		echo "coverage $$p: $$pct% (floor $(COVER_MIN)%)"; \
		awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN{exit !(p>=m)}' || { \
			echo "FAIL: coverage of $$p below $(COVER_MIN)%"; exit 1; }; \
	done

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x

# bench-smoke runs every root-level benchmark exactly once with tests
# disabled, with the throughput gates armed: the steady-state stepping
# loop must allocate nothing, and the stepping speed of the synthetic
# StepKernel and of the four kernels of internal/bench's StepKernels
# (three compiled ones and the node benchmarks' count loop) must stay
# within 10% of the checked-in
# BENCH_throughput.json baseline. The speeds compared are host-
# independent: each is the median of 31 batches of ns/step, each
# divided by a sort-and-deflate calibration timed just before it in
# the same process (hostinfo.Calibrate) and scaled to a host where the
# calibration takes 10 ms (RefNsPerStep). With a trace.Recorder
# attached the loop must step at no more than 2x the unrecorded
# ns/step measured in the same process (median of 3 alternating
# rounds; no baseline file). A cached full reconfiguration
# must allocate at most 100 KB (BenchmarkReconfigCache/hit-full: the
# board memories and the CPU's predecode and profile tables are handed
# over, not copied). An untraced client's
# remote-run-shaped op (32 KB load, start, held wait, read-back) on a
# node that traces with a flight recorder must take at most 1.15x the
# same op on a node that does not trace (BenchmarkNodeTracingOverhead:
# both nodes in this process, median of 9 rounds of 50 interleaved op
# pairs; no baseline file). bench-smoke never rewrites
# BENCH_throughput.json: a run that rewrote its own baseline would move
# the next run's ceiling by its own noise.
bench-smoke:
	LIQUID_BENCH_GATE=1 $(GO) test -run '^$$' -bench . -benchtime 1x -v .

# bench-baseline re-measures the stepping speeds bench-smoke gates and
# rewrites BENCH_throughput.json with them, raw and calibrated, and the
# host stamp. It gates nothing. Commit the refresh when the speeds move
# for a real reason, from a run whose figures sit in the middle of a
# few.
bench-baseline:
	LIQUID_BENCH_JSON=$(CURDIR)/BENCH_throughput.json \
		$(GO) test -run '^$$' -bench 'BenchmarkStepThroughput$$' -benchtime 1x -v .

# load-smoke runs the pipelined-control-plane benchmarks once
# (BenchmarkLoadThroughput window=1 vs window=16 through a UDP relay
# with 1 ms latency each way, and the single-board leg of
# BenchmarkNodeConcurrentClients) with the gates armed: the windowed
# load must cost at least 2x fewer implied round trips than
# stop-and-wait, and single-board runs/s must stay above half the
# checked-in BENCH_load.json baseline. The runs/s compared are
# host-independent: the median of 9 batches of 10 runs, each scaled by
# a hostinfo.Calibrate timed just before it in the same process
# (Boards1RefRunsPerSec). It never rewrites BENCH_load.json
# (load-baseline does).
LOAD_BENCH = 'BenchmarkLoadThroughput|BenchmarkNodeConcurrentClients/boards=1$$'
load-smoke:
	LIQUID_LOAD_GATE=1 $(GO) test -run '^$$' -bench $(LOAD_BENCH) -benchtime 1x -v ./internal/server/

# load-baseline re-measures the load-smoke figures and rewrites
# BENCH_load.json with them and the host stamp. It gates nothing.
# Commit the refresh when the figures move for a real reason.
load-baseline:
	LIQUID_LOAD_JSON=$(CURDIR)/BENCH_load.json \
		$(GO) test -run '^$$' -bench $(LOAD_BENCH) -benchtime 1x -v ./internal/server/

# node-smoke runs BenchmarkNodeConcurrentClients at both board counts
# (1 and 4 boards, one stock client each) and re-emits BENCH_node.json
# with the figures and the host stamp. It has no gate: the 4-board
# aggregate depends on the host's CPU count (commit the refresh when
# the numbers move for a real reason).
node-smoke:
	LIQUID_NODE_JSON=$(CURDIR)/BENCH_node.json \
		$(GO) test -run '^$$' -bench 'BenchmarkNodeConcurrentClients' -v ./internal/server/

# reconfig-smoke runs the cold/warm reconfiguration-service benchmark
# once with the gate armed: a restarted node must serve a three-pass
# sweep over a pregenerated configuration space at a ≥90% hit ratio
# with exactly one new synthesis (the novel point). It never rewrites
# BENCH_reconfig.json (reconfig-baseline does).
reconfig-smoke:
	LIQUID_RECONFIG_GATE=1 $(GO) test -run '^$$' -bench 'BenchmarkReconfigColdWarm' \
		-benchtime 1x -v ./internal/reconfig/

# reconfig-baseline re-measures the reconfig-smoke figures — hit ratio,
# modelled tool hours saved, wall time — and rewrites
# BENCH_reconfig.json with them. It gates nothing. Commit the refresh
# when the figures move for a real reason.
reconfig-baseline:
	LIQUID_RECONFIG_JSON=$(CURDIR)/BENCH_reconfig.json \
		$(GO) test -run '^$$' -bench 'BenchmarkReconfigColdWarm' \
		-benchtime 1x -v ./internal/reconfig/

# trace-smoke runs the two-board example with end-to-end exchange
# tracing and lets it self-validate the merged Chrome trace-event
# export (JSON parses, every span nests inside its parent); the
# example exits non-zero if the timeline is malformed.
trace-smoke:
	$(GO) run ./examples/multinode -trace-out $${TMPDIR:-/tmp}/liquidarch-trace-smoke.json

# sim-smoke is the deterministic-simulation gate: the model-based
# cluster runner must match the sequential reference model over 100
# pinned seeds (randomized op mixes across boards, the current client
# over lossy links), and the planted dedup bug must be caught with a
# replayable seed. It also runs the in-fabric chaos storms and the 2×2
# compat matrix (the paper's v1 packets and the current v4 client,
# against a one- and a two-board node).
# LIQUID_SIM_SEEDS raises the sweep; the nightly workflow runs 400.
SIM_SEEDS ?= 100
sim-smoke:
	LIQUID_SIM_SEEDS=$(SIM_SEEDS) $(GO) test -count=1 \
		-run 'TestModelSmoke|TestModelReconfigIdleMix|TestModelCatchesDedupBug' ./internal/sim/modeltest/
	$(GO) test -count=1 -run 'Sim|Compat' ./internal/server/

# time-lint rejects new direct wall-clock calls in non-test
# control-plane code: every timeout, backoff, and delay must go
# through the injected sim.Clock so the deterministic simulation can
# virtualize it. internal/sim itself (the clock's home) and test files
# are exempt; time.Time/time.Duration *types* are fine — only calls
# that read or wait on the real clock are flagged.
TIME_LINT_PKGS = internal/client internal/server \
	internal/fpx internal/leon internal/core internal/reconfig internal/synth
time-lint:
	@out=$$(grep -rnE 'time\.(Now|Sleep|After|AfterFunc|NewTimer|NewTicker|Since|Until|Tick)\(' \
		$(TIME_LINT_PKGS) --include='*.go' | grep -v '_test\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "direct wall-clock use in control-plane code (inject sim.Clock instead):"; \
		echo "$$out"; exit 1; \
	fi

ci: fmt-check vet build race race-net chaos cover-gate bench-smoke load-smoke reconfig-smoke trace-smoke sim-smoke time-lint
