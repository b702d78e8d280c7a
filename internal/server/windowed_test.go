package server

import (
	"testing"
	"time"

	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

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
	// The clock has no stepper, so virtual time stands still and the
	// parked wait cannot expire while the board steps. On a stepped
	// clock it leaps to the hold's expiry whenever the board has run for
	// two idle grains, and whether a wait is parked when the run ends
	// would depend on host speed.
	clk := sim.NewVirtualClock()
	w := &sim.World{Clock: clk, Net: sim.NewNetwork(clk, 1)}
	srv, addr := newSimNode(t, w, simBoard(t, w.Clock, [4]byte{10, 0, 0, 2}))
	serveNode(t, srv)
	obj := assembleAt(t, countProg(1_000_000))
	c, _ := dialSim(t, w, addr, 1, scripted(t, "up:wait=dup"))
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
