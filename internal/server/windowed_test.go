package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"liquidarch/internal/chaos"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
)

// TestWindowedLoadUnderLoss is the pipelining acceptance test: a
// 32-chunk sliding-window load through 20% loss plus reordering lands
// bit-identical to a clean stop-and-wait load, for every pinned seed,
// and the client's accounting closes — every chunk was requested
// exactly once (requests{load} + skipped == chunks) and every
// retransmission shows up in both the resend and retry counters.
func TestWindowedLoadUnderLoss(t *testing.T) {
	const chunks = 32
	img := make([]byte, (chunks-1)*netproto.MaxChunkData+317)
	for i := range img {
		img[i] = byte(i*13 + i>>9)
	}

	// Clean-path baseline: stop-and-wait (window=1) straight to the
	// server, then read the image back out of board memory.
	_, cleanAddr := startServer(t)
	base := dial(t, cleanAddr)
	base.Window = 1
	if err := base.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
		t.Fatalf("baseline load: %v", err)
	}
	want, err := base.ReadMemory(leon.DefaultLoadAddr, len(img))
	if err != nil {
		t.Fatalf("baseline readback: %v", err)
	}
	if !bytes.Equal(want, img) {
		t.Fatal("baseline load did not faithfully store the image")
	}

	for _, seed := range smokeSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, addr := startServer(t)
			reg := metrics.NewRegistry()
			faults := chaos.Faults{Drop: 0.2, Reorder: 0.1}
			proxy := chaosProxy(t, addr, chaos.Config{
				Seed:     seed,
				Up:       faults,
				Down:     faults,
				Registry: reg,
			})
			c := dialChaos(t, proxy.Addr().String(), seed)
			if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
				t.Fatalf("windowed load under loss: %v", err)
			}

			// Readback on the clean path: what the board holds, not what
			// the lossy link happens to echo.
			check := dial(t, addr)
			got, err := check.ReadMemory(leon.DefaultLoadAddr, len(img))
			if err != nil {
				t.Fatalf("readback: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Error("windowed load under loss diverged from the clean stop-and-wait image")
			}

			// The storm must actually have raged.
			snap := reg.Snapshot()
			drops := snap.Counter(`liquid_chaos_injected_total{event="up_drop"}`) +
				snap.Counter(`liquid_chaos_injected_total{event="down_drop"}`)
			if drops == 0 {
				t.Error("chaos injected no drops — test proved nothing")
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

// TestWaitResultHeldByServer: with a running program, WaitResult parks
// on the server and comes back with the final report the moment the
// run completes — without a single CmdResult poll on the wire.
func TestWaitResultHeldByServer(t *testing.T) {
	srv, addr := startServer(t)
	obj := assembleAt(t, countProg(1_000_000)) // ~50 ms of simulated run
	c := dial(t, addr)
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := c.StartAsync(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counters["liquid_server_waits_parked_total"] == 0 {
		t.Error("server never parked the wait")
	}
	if snap.Counter(`liquid_server_wait_wakeups_total{reason="done"}`) == 0 {
		t.Error("no done-wakeup: the parked wait was not released by run completion")
	}

	csnap := c.Metrics().Snapshot()
	if got := csnap.Counter(`liquid_client_requests_total{cmd="result"}`); got != 0 {
		t.Errorf("client issued %d CmdResult polls; the held wait should need zero", got)
	}
	if csnap.Counter(`liquid_client_requests_total{cmd="wait"}`) == 0 {
		t.Error("client never issued a held wait")
	}
	if csnap.Counters["liquid_client_wait_holds_total"] == 0 {
		t.Error("client did not count the held wait")
	}
}

// TestWaitHoldExpiresAndRearms: a hold shorter than the run expires
// server-side (the client gets a Running report) and the client simply
// parks again; the run still completes with the final report and the
// expiry is visible in the wakeup-reason counter.
func TestWaitHoldExpiresAndRearms(t *testing.T) {
	srv, addr := startServer(t)
	obj := assembleAt(t, countProg(2_000_000)) // ~100 ms of simulated run
	c := dial(t, addr)
	c.WaitHold = 20 * time.Millisecond
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := c.StartAsync(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK {
		t.Fatalf("report = %+v", rep)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counter(`liquid_server_wait_wakeups_total{reason="expired"}`) == 0 {
		t.Error("no hold ever expired despite a 20 ms hold on a ~100 ms run")
	}
	csnap := c.Metrics().Snapshot()
	if csnap.Counters["liquid_client_wait_holds_total"] < 2 {
		t.Error("client did not re-arm the hold after expiry")
	}
}

// TestHeldWaitSurvivesRetransmit: duplicate every uplink wait packet.
// The retransmitted copy of a parked wait must be swallowed (not
// answered twice, not double-parked), and the exchange still resolves
// with the run's final report.
func TestHeldWaitSurvivesRetransmit(t *testing.T) {
	srv, addr := startServer(t)
	rules, err := chaos.ParseScript("up:wait=dup")
	if err != nil {
		t.Fatal(err)
	}
	proxy := chaosProxy(t, addr, chaos.Config{Seed: 1, Script: rules})

	obj := assembleAt(t, countProg(1_000_000))
	c := dial(t, proxy.Addr().String())
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := c.StartAsync(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counter(`liquid_server_drops_total{reason="parked_dup"}`) == 0 {
		t.Error("duplicated wait never hit the parked-retransmit filter")
	}
	if got := snap.Counter(`liquid_server_wait_wakeups_total{reason="done"}`); got == 0 {
		t.Error("parked wait was not released by completion")
	}
}
