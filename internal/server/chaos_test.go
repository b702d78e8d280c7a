package server

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// chaosSeeds are the pinned fault-sequence seeds the storms replay.
// The full matrix runs on the simulated fabric (sim_chaos_test.go);
// the real-UDP storm below keeps the first seed to prove the
// production socket path still survives one.
var chaosSeeds = []int64{1, 7, 42}

// chaosRelay starts a fault relay in front of addr, applying lp to both
// directions, wired for cleanup.
func chaosRelay(t testing.TB, addr string, seed int64, lp sim.LinkParams, reg *metrics.Registry) *sim.Relay {
	t.Helper()
	r, err := sim.NewRelay("127.0.0.1:0", addr, seed, lp, lp, reg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve() }()
	t.Cleanup(func() {
		r.Close()
		if err := <-done; err != nil {
			t.Errorf("chaos relay: %v", err)
		}
	})
	return r
}

// dialChaos dials through addr with the retry schedule tuned for a
// stormy transport: short first timeout, generous retry budget, jitter
// pinned to seed so the whole retransmission schedule is reproducible.
func dialChaos(t testing.TB, addr string, seed int64) *client.Client {
	t.Helper()
	c := dial(t, addr)
	c.Timeout = 100 * time.Millisecond
	c.MaxTimeout = time.Second
	c.Retries = 10
	c.SetSeed(seed)
	return c
}

// runCycle drives one full load→start→result cycle plus a load-image
// readback, and returns everything the transport could have corrupted.
func runCycle(t testing.TB, c *client.Client, obj *asm.Object) (netproto.RunReport, []byte) {
	t.Helper()
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	head, err := c.ReadMemory(obj.Origin, 64)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	return rep, head
}

// TestControlPlaneUnderChaos is the real-socket storm: a full
// load→start→result cycle through the fault relay completes
// bit-identically under 20% loss plus reordering and duplication. The
// simulator is deterministic, so any divergence from the clean-path
// baseline is a transport-hardening bug: a lost chunk, a doubly
// applied start, a stale result accepted. The full pinned-seed matrix
// runs on the simulated fabric in TestControlPlaneUnderChaosSim.
func TestControlPlaneUnderChaos(t *testing.T) {
	iters := 100_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))

	// Clean-path baseline.
	_, addr := startServer(t)
	wantRep, wantHead := runCycle(t, dial(t, addr), obj)
	if wantRep.Status != netproto.StatusOK || wantRep.Cycles == 0 {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range chaosSeeds[:1] {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, addr := startServer(t)
			reg := metrics.NewRegistry()
			relay := chaosRelay(t, addr, seed, sim.LinkParams{Drop: 0.2, Reorder: 0.1, Dup: 0.1}, reg)
			c := dialChaos(t, relay.Addr().String(), seed)
			rep, head := runCycle(t, c, obj)
			if rep != wantRep {
				t.Errorf("report diverged under chaos:\n got %+v\nwant %+v", rep, wantRep)
			}
			if string(head) != string(wantHead) {
				t.Errorf("loaded image diverged under chaos")
			}
			// The storm must actually have raged: injected loss and
			// reordering, and the hardened client visibly retried.
			snap := reg.Snapshot()
			drops := snap.Counter(`liquid_chaos_injected_total{event="up_drop"}`) +
				snap.Counter(`liquid_chaos_injected_total{event="down_drop"}`)
			reorders := snap.Counter(`liquid_chaos_injected_total{event="up_reorder"}`) +
				snap.Counter(`liquid_chaos_injected_total{event="down_reorder"}`)
			if drops == 0 {
				t.Error("relay injected no drops — test proved nothing")
			}
			if reorders == 0 {
				t.Error("relay injected no reorders — test proved nothing")
			}
			csnap := c.Metrics().Snapshot()
			if csnap.Counters["liquid_client_retries_total"] == 0 {
				t.Error("client never retried under 20% loss")
			}
		})
	}
}

// scripted returns a fabric link whose only faults are the rules of s.
func scripted(t testing.TB, s string) sim.LinkParams {
	t.Helper()
	rules, err := sim.ParseScript(s)
	if err != nil {
		t.Fatal(err)
	}
	return sim.LinkParams{Rules: rules}
}

// emulatorSimNode serves one fpx emulator board on a fresh world's
// fabric.
func emulatorSimNode(t testing.TB, seed int64) (*sim.World, *fpx.Platform, net.Addr) {
	t.Helper()
	w := sim.NewWorld(seed)
	t.Cleanup(w.Close)
	platform := fpx.New(fpx.NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	srv, addr := newSimNode(t, w, platform)
	serveNode(t, srv)
	return w, platform, addr
}

// TestLoadInterruptedResumes is the resume acceptance test: a load
// black-holed from chunk 4 onward fails with partial progress, and a
// fresh client (a reconnect) finishes the load by resuming from the
// server's advertised gap — never re-sending chunks the board already
// holds. The server-side apply counter must equal the chunk total:
// every chunk applied exactly once, across both attempts.
func TestLoadInterruptedResumes(t *testing.T) {
	w, platform, addr := emulatorSimNode(t, 1)

	img := make([]byte, 3*netproto.MaxChunkData+500) // 4 chunks
	for i := range img {
		img[i] = byte(i * 7)
	}
	chunks := len(netproto.ChunkImage(leon.DefaultLoadAddr, img))

	// Attempt 1, through the black hole: chunks 1-3 are acked, chunk 4
	// (and every retransmission of it) vanishes.
	c1, _ := dialSim(t, w, addr, 1, scripted(t, "up:load@4+=drop"))
	c1.Retries = 2
	err := c1.LoadProgram(leon.DefaultLoadAddr, img)
	var le *client.LoadError
	if !errors.As(err, &le) {
		t.Fatalf("interrupted load returned %v, want *LoadError", err)
	}
	if le.ChunksAcked != 3 || le.ChunksTotal != chunks {
		t.Fatalf("partial progress = %d/%d, want 3/%d", le.ChunksAcked, le.ChunksTotal, chunks)
	}
	if !errors.Is(err, client.ErrBoardUnreachable) {
		t.Fatalf("LoadError does not unwrap to ErrBoardUnreachable: %v", err)
	}

	// Attempt 2, clean path: the load resumes from chunk 4.
	c2, _ := dialSim(t, w, addr, 2, cleanLink())
	if err := c2.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
		t.Fatalf("resumed load: %v", err)
	}

	snap := platform.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_load_chunks_applied_total"]; got != uint64(chunks) {
		t.Errorf("chunks applied = %d, want exactly %d (no chunk applied twice)", got, chunks)
	}
	if snap.Counters["liquid_fpx_load_chunks_dup_total"] == 0 {
		t.Error("resume probe not counted as a duplicate chunk")
	}
	if snap.Counters["liquid_fpx_loads_completed_total"] != 1 {
		t.Error("load did not complete exactly once")
	}
	csnap := c2.Metrics().Snapshot()
	if csnap.Counters["liquid_client_loads_resumed_total"] != 1 {
		t.Error("client did not count the resume")
	}
	if got := csnap.Counters["liquid_client_load_chunks_skipped_total"]; got != 2 {
		t.Errorf("client skipped %d chunks, want 2 (chunks 2-3 already held)", got)
	}
}

// TestDuplicateResponsesSuppressed: with every status ack duplicated
// by the link, the stray copy left in the socket buffer is discarded
// by the next exchange's seq filter instead of being mistaken for its
// answer.
func TestDuplicateResponsesSuppressed(t *testing.T) {
	w, _, addr := emulatorSimNode(t, 1)
	c, _ := dialSim(t, w, addr, 1, scripted(t, "down:status=dup"))
	for i := 0; i < 3; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatalf("status %d: %v", i, err)
		}
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["liquid_client_dup_responses_total"] == 0 {
		t.Error("duplicated acks were never suppressed")
	}
}

// TestRetransmittedStartNotReapplied: the server's dedup window must
// re-ack a duplicated start instead of starting the board twice — a
// double apply would re-run the program and corrupt the cycle report.
func TestRetransmittedStartNotReapplied(t *testing.T) {
	iters := 50_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))

	w := sim.NewWorld(1)
	t.Cleanup(w.Close)
	srv, addr := newSimNode(t, w, simBoard(t, w.Clock, [4]byte{10, 0, 0, 2}))
	serveNode(t, srv)
	c, _ := dialSim(t, w, addr, 1, scripted(t, "up:start=dup, up:result=dup"))

	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["liquid_fpx_dup_requests_total"] == 0 {
		t.Error("duplicated requests never hit the dedup window")
	}
}
