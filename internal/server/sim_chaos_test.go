package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// These are the chaos acceptance storms on the simulated fabric:
// sim.Network under a virtual clock, so every retransmission timeout
// costs microseconds of real time instead of milliseconds, and the
// whole pinned-seed matrix runs here. TestControlPlaneUnderChaos in
// chaos_test.go runs the same fault engine between real sockets, to
// prove the production socket path still survives a storm.

// simStorm is the headline fault mix on the fabric: 20% loss plus
// reordering and duplication, with sub-millisecond link latency so
// delivery rides the virtual timeline.
func simStorm() sim.LinkParams {
	return sim.LinkParams{
		Drop: 0.2, Reorder: 0.1, Dup: 0.1,
		Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond,
	}
}

// cleanLink is latency-only: the fault-free baseline path.
func cleanLink() sim.LinkParams {
	return sim.LinkParams{Latency: 200 * time.Microsecond}
}

// simBoard boots one LEON platform on the virtual clock.
func simBoard(t testing.TB, clk sim.Clock, ip [4]byte) *fpx.Platform {
	t.Helper()
	restoreGOMAXPROCS(t)
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	actrl := leon.NewAsyncController(ctrl)
	actrl.SetClock(clk)
	t.Cleanup(actrl.Close)
	return fpx.New(actrl, ip, 5001)
}

// newSimNode makes boards one node on the world's fabric, returning
// the node, not yet served, and its fabric address.
func newSimNode(t testing.TB, w *sim.World, boards ...*fpx.Platform) (*Server, net.Addr) {
	t.Helper()
	pc, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNodeConn(pc, w.Clock, boards...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, pc.LocalAddr()
}

// startSimNode boots an n-board node on the world's fabric and serves
// it until cleanup, returning the node's fabric address.
func startSimNode(t testing.TB, w *sim.World, n int) net.Addr {
	t.Helper()
	boards := make([]*fpx.Platform, n)
	for i := range boards {
		boards[i] = simBoard(t, w.Clock, [4]byte{10, 0, 0, byte(2 + i)})
	}
	srv, addr := newSimNode(t, w, boards...)
	serveNode(t, srv)
	return addr
}

// dialSim connects a client across the fabric with the chaos retry
// schedule (tuned to virtual milliseconds) and the given fault params
// installed on both directions of its link.
func dialSim(t testing.TB, w *sim.World, remote net.Addr, seed int64, p sim.LinkParams) (*client.Client, *sim.Conn) {
	t.Helper()
	conn, err := w.Net.Dial(remote)
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetLink(conn.LocalAddr(), remote, p)
	w.Net.SetLink(remote, conn.LocalAddr(), p)
	c := client.New(conn, w.Clock)
	t.Cleanup(func() { c.Close() })
	c.Timeout = 50 * time.Millisecond
	c.MaxTimeout = 400 * time.Millisecond
	c.Retries = 10
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 60 * time.Second
	c.WaitHold = 20 * time.Millisecond
	c.SetSeed(seed)
	return c, conn
}

// simTotals are the storm-raged counters of one simulated run.
type simTotals struct {
	drops, reorders, retries uint64
}

// runNodeSim executes one full storm on a fresh world: an n-board node,
// one client per board, each driving load→start→result→readback of the
// same program through its own lossy link. Returns every board's final
// report and loaded-image head plus the aggregated fault counters.
func runNodeSim(t *testing.T, seed int64, n int, obj *asm.Object, p sim.LinkParams) ([]netproto.RunReport, [][]byte, simTotals) {
	t.Helper()
	w := sim.NewWorld(seed)
	t.Cleanup(w.Close)
	addr := startSimNode(t, w, n)

	clients := make([]*client.Client, n)
	conns := make([]*sim.Conn, n)
	for b := 0; b < n; b++ {
		clients[b], conns[b] = dialSim(t, w, addr, seed+int64(b), p)
		clients[b].Board = uint8(b)
	}

	var wg sync.WaitGroup
	reps := make([]netproto.RunReport, n)
	heads := make([][]byte, n)
	errs := make([]error, n)
	for b := 0; b < n; b++ {
		wg.Add(1)
		go func(b int, c *client.Client) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[b] = fmt.Errorf("panic: %v", r)
				}
			}()
			if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
				errs[b] = fmt.Errorf("load: %w", err)
				return
			}
			rep, err := c.Start(obj.Origin, 0)
			if err != nil {
				errs[b] = fmt.Errorf("start: %w", err)
				return
			}
			reps[b] = rep
			heads[b], errs[b] = c.ReadMemory(obj.Origin, 64)
		}(b, clients[b])
	}
	wg.Wait()
	for b := 0; b < n; b++ {
		if errs[b] != nil {
			t.Fatalf("board %d: %v", b, errs[b])
		}
	}

	var tot simTotals
	for b := 0; b < n; b++ {
		up := w.Net.LinkStats(conns[b].LocalAddr(), addr)
		down := w.Net.LinkStats(addr, conns[b].LocalAddr())
		tot.drops += up.Dropped + down.Dropped
		tot.reorders += up.Reordered + down.Reordered
		tot.retries += clients[b].Metrics().Snapshot().Counters["liquid_client_retries_total"]
	}
	return reps, heads, tot
}

// TestControlPlaneUnderChaosSim is the fabric port of the headline
// acceptance test: a full load→start→result cycle completes
// bit-identically under 20% loss plus reordering and duplication, for
// every pinned seed, and two executions of a seed agree on the report
// and the loaded image. They need not agree on the fault counts. The
// schedule is a pure function of the seed and of each link's datagram
// order, and a board's run moves that order: the virtual clock steps
// after two idle 100 µs grains, and a stepping board touches neither
// the clock nor the network, so virtual time, and with it the client's
// retransmit and hold timers, moves mid-run by an amount set by host
// speed. Seed 7 has logged 10, 11 and 12 drops on a 2-vCPU host.
func TestControlPlaneUnderChaosSim(t *testing.T) {
	iters := 100_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	// Pad the image to 11 chunks so the storm has enough traffic to
	// provably rage on every pinned seed: countProg's three chunks and
	// eight more. The padding is counted in chunks, not bytes, so the
	// storm's traffic does not shrink when chunks grow.
	obj := assembleAt(t, countProg(iters)+fmt.Sprintf("\t.space %d\n", 8*netproto.MaxChunkData))
	if n := len(netproto.ChunkImage(obj.Origin, obj.Code)); n != 11 {
		t.Fatalf("storm image is %d chunks, want 11", n)
	}

	// Clean-path baseline on the same fabric.
	baseReps, baseHeads, _ := runNodeSim(t, 0, 1, obj, cleanLink())
	wantRep, wantHead := baseReps[0], baseHeads[0]
	if wantRep.Status != netproto.StatusOK || wantRep.Cycles == 0 {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			reps1, heads1, tot1 := runNodeSim(t, seed, 1, obj, simStorm())
			reps2, heads2, tot2 := runNodeSim(t, seed, 1, obj, simStorm())
			tot := simTotals{
				drops:    tot1.drops + tot2.drops,
				reorders: tot1.reorders + tot2.reorders,
				retries:  tot1.retries + tot2.retries,
			}
			t.Logf("two simulated storms in %v (drops=%d reorders=%d retries=%d)",
				time.Since(start), tot.drops, tot.reorders, tot.retries)

			if reps1[0] != wantRep {
				t.Errorf("report diverged under chaos:\n got %+v\nwant %+v", reps1[0], wantRep)
			}
			if string(heads1[0]) != string(wantHead) {
				t.Errorf("loaded image diverged under chaos")
			}
			// Same seed, same storm: the second run must agree bit-for-bit.
			if reps1[0] != reps2[0] {
				t.Errorf("same seed, different reports:\n run1 %+v\n run2 %+v", reps1[0], reps2[0])
			}
			if string(heads1[0]) != string(heads2[0]) {
				t.Errorf("same seed, different loaded images")
			}
			// The storm must actually have raged.
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}
			if tot.reorders == 0 {
				t.Error("fabric injected no reorders — test proved nothing")
			}
			if tot.retries == 0 {
				t.Error("client never retried under 20% loss")
			}
		})
	}
}

// TestNodeUnderChaosSim is the fabric port of the deterministic soak: a
// 4-board node, four concurrent clients through four independently
// faulted links, every board's result bit-identical to the clean
// baseline — and the whole storm re-run to prove two executions of a
// seed agree. Runs the full matrix even in -short: virtual time makes
// the soak cheap.
func TestNodeUnderChaosSim(t *testing.T) {
	const boards = 4
	iters := 20_000
	obj := assembleAt(t, countProg(iters))

	baseReps, baseHeads, _ := runNodeSim(t, 0, 1, obj, cleanLink())
	wantRep, wantHead := baseReps[0], baseHeads[0]
	if wantRep.Status != netproto.StatusOK {
		t.Fatalf("baseline report = %+v", wantRep)
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			reps1, heads1, tot := runNodeSim(t, seed, boards, obj, simStorm())
			reps2, heads2, _ := runNodeSim(t, seed, boards, obj, simStorm())
			t.Logf("two %d-board storms in %v (drops=%d reorders=%d)",
				boards, time.Since(start), tot.drops, tot.reorders)
			for b := 0; b < boards; b++ {
				if reps1[b] != wantRep {
					t.Errorf("board %d report diverged:\n got %+v\nwant %+v", b, reps1[b], wantRep)
				}
				if string(heads1[b]) != string(wantHead) {
					t.Errorf("board %d loaded image diverged", b)
				}
				if reps1[b] != reps2[b] {
					t.Errorf("board %d: same seed, different reports:\n run1 %+v\n run2 %+v", b, reps1[b], reps2[b])
				}
				if string(heads1[b]) != string(heads2[b]) {
					t.Errorf("board %d: same seed, different loaded images", b)
				}
			}
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}
		})
	}
}

// TestWindowedLoadUnderLossSim is the fabric port of the pipelining
// acceptance test: a 32-chunk sliding-window load through 20% loss plus
// reordering lands bit-identical to a clean stop-and-wait load, the
// client's chunk accounting closes, and two runs of a seed agree.
func TestWindowedLoadUnderLossSim(t *testing.T) {
	const chunks = 32
	img := make([]byte, (chunks-1)*netproto.MaxChunkData+317)
	for i := range img {
		img[i] = byte(i*13 + i>>9)
	}

	// runLoad pushes img through a lossy link on a fresh world, then
	// reads the board's memory back over a clean link.
	runLoad := func(t *testing.T, seed int64, p sim.LinkParams, window int) ([]byte, *client.Client, simTotals) {
		t.Helper()
		w := sim.NewWorld(seed)
		t.Cleanup(w.Close)
		addr := startSimNode(t, w, 1)
		c, conn := dialSim(t, w, addr, seed, p)
		if window > 0 {
			c.Window = window
		}
		if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
			t.Fatalf("load under loss: %v", err)
		}
		check, _ := dialSim(t, w, addr, seed, cleanLink())
		got, err := check.ReadMemory(leon.DefaultLoadAddr, len(img))
		if err != nil {
			t.Fatalf("readback: %v", err)
		}
		up := w.Net.LinkStats(conn.LocalAddr(), addr)
		down := w.Net.LinkStats(addr, conn.LocalAddr())
		return got, c, simTotals{
			drops:    up.Dropped + down.Dropped,
			reorders: up.Reordered + down.Reordered,
			retries:  c.Metrics().Snapshot().Counters["liquid_client_retries_total"],
		}
	}

	// Clean stop-and-wait baseline.
	want, _, _ := runLoad(t, 0, cleanLink(), 1)
	if string(want) != string(img) {
		t.Fatal("baseline load did not faithfully store the image")
	}

	lossy := sim.LinkParams{
		Drop: 0.2, Reorder: 0.1,
		Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond,
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			got1, c, tot := runLoad(t, seed, lossy, 0)
			got2, _, _ := runLoad(t, seed, lossy, 0)
			t.Logf("two windowed loads in %v (drops=%d retries=%d)", time.Since(start), tot.drops, tot.retries)

			if string(got1) != string(want) {
				t.Error("windowed load under loss diverged from the clean stop-and-wait image")
			}
			if string(got1) != string(got2) {
				t.Error("same seed, different loaded images")
			}
			if tot.drops == 0 {
				t.Error("fabric injected no drops — test proved nothing")
			}

			// Accounting closes: chunks requested once each, resends all
			// visible in both counters.
			csnap := c.Metrics().Snapshot()
			loadReqs := csnap.Counter(`liquid_client_requests_total{cmd="load"}`)
			skipped := csnap.Counters["liquid_client_load_chunks_skipped_total"]
			if loadReqs+skipped != chunks {
				t.Errorf("requests{load}=%d + skipped=%d != %d chunks", loadReqs, skipped, chunks)
			}
			resends := csnap.Counters["liquid_client_load_chunk_resends_total"]
			retries := csnap.Counters["liquid_client_retries_total"]
			if resends == 0 {
				t.Error("no chunk resends under 20% loss — window never recovered anything")
			}
			if resends != retries {
				t.Errorf("chunk resends (%d) != retries (%d): a retransmission escaped the accounting", resends, retries)
			}
		})
	}
}

// TestStartBudgetAtCounterTopSim sends a StartReq whose MaxCycles
// carries the run's cycle limit to the top of the board's cycle
// counter, and one past it, across the fabric: the run must start and
// complete within a host-time bound. The limit once wrapped, so the
// first never left the handoff and the second failed its budget before
// it began. The node now clamps a wire budget to leon.DefaultMaxCycles;
// leon's TestStartBudgetAtCounterTop pins the saturation itself.
func TestStartBudgetAtCounterTopSim(t *testing.T) {
	obj := assembleAt(t, countProg(100))
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := leon.NewController(soc).Boot(); err != nil {
		t.Fatal(err)
	}
	booted := soc.Cycles() // a fresh board's counter at the handoff
	for _, budget := range []uint64{^uint64(0) - booted, ^uint64(0)} {
		w := sim.NewWorld(1)
		t.Cleanup(w.Close)
		addr := startSimNode(t, w, 1)
		c, _ := dialSim(t, w, addr, 1, cleanLink())
		if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		type out struct {
			rep netproto.RunReport
			err error
		}
		done := make(chan out, 1)
		go func() {
			rep, err := c.Start(obj.Origin, budget)
			done <- out{rep, err}
		}()
		select {
		case o := <-done:
			if o.err != nil || o.rep.Status != netproto.StatusOK || o.rep.Cycles == 0 {
				t.Errorf("budget %#x: Start = %+v, %v", budget, o.rep, o.err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("budget %#x: the run had not completed after 20 s", budget)
		}
	}
}
