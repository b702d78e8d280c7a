package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/client"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/synth"
)

// reconfigSynth keeps the modelled ≈1 h synthesis observable for tens
// of milliseconds of real time, so polls can catch the in-flight
// states over the wire.
var reconfigSynth = synth.Options{BitstreamBytes: 256, TimeScale: 1e-5}

// startSystemNode boots n core-backed boards sharing one
// reconfiguration manager (the multi-board dedup arrangement) and
// serves them on loopback. The boot configuration is pre-generated so
// New never counts synthesis runs of its own.
func startSystemNode(t testing.TB, n int, opts synth.Options) (*Server, string, []*core.System, *reconfig.Manager) {
	t.Helper()
	restoreGOMAXPROCS(t)
	m := reconfig.NewManagerWorkers(reconfig.NewCache(0), opts, 4)
	if err := m.Pregenerate([]leon.Config{leon.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	systems := make([]*core.System, n)
	plats := make([]*fpx.Platform, n)
	for i := range systems {
		s, err := core.New(leon.DefaultConfig(), core.Options{
			Synth:   opts,
			Manager: m,
			IP:      [4]byte{10, 0, 0, byte(2 + i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		systems[i] = s
		plats[i] = s.Platform()
	}
	srv, err := NewNode("127.0.0.1:0", plats...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveNode(t, srv), systems, m
}

// specFor is the JSON reconfigure spec selecting a D-cache size.
func specFor(sizeBytes int) []byte {
	blob, _ := json.Marshal(core.Spec{DCacheBytes: sizeBytes})
	return blob
}

// TestReconfigureDedupOverWire is the tentpole's network-facing dedup
// proof: N clients concurrently reconfigure N boards of one node to
// the same configuration, and the shared synthesis service runs
// exactly once.
func TestReconfigureDedupOverWire(t *testing.T) {
	const boards = 4
	_, addr, _, m := startSystemNode(t, boards, reconfigSynth)
	base := m.Stats().SynthRuns

	var wg sync.WaitGroup
	errs := make([]error, boards)
	for i := 0; i < boards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			c.Board = uint8(i)
			if err := c.Reconfigure(specFor(8 << 10)); err != nil {
				errs[i] = fmt.Errorf("board %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := m.Stats().SynthRuns - base; got != 1 {
		t.Errorf("synthesis ran %d times for %d concurrent boards, want exactly 1", got, boards)
	}
}

// TestReconfigStatusLatencyDuringSynthesis: while a synthesis is in
// flight, CmdStatus and CmdReconfigStatus keep answering well under
// the control-plane latency target — the board's queue is NOT held
// through the modelled hour.
func TestReconfigStatusLatencyDuringSynthesis(t *testing.T) {
	slow := synth.Options{BitstreamBytes: 256, TimeScale: 3e-5} // ≈108 ms per point
	_, addr, _, _ := startSystemNode(t, 1, slow)
	c := dial(t, addr)

	st, err := c.ReconfigureAsync(specFor(8 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.Terminal() {
		t.Fatalf("miss acked terminally: %+v", st)
	}

	bound := 10 * time.Millisecond
	if raceEnabled {
		bound = 100 * time.Millisecond
	}
	sawInFlight := false
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := c.Status(); err != nil {
			t.Fatalf("status poll %d: %v", i, err)
		}
		if d := time.Since(t0); d > bound {
			t.Errorf("CmdStatus poll %d took %v during synthesis (bound %v)", i, d, bound)
		}
		t0 = time.Now()
		rst, err := c.ReconfigStatus()
		if err != nil {
			t.Fatalf("reconfig status poll %d: %v", i, err)
		}
		if d := time.Since(t0); d > bound {
			t.Errorf("CmdReconfigStatus poll %d took %v during synthesis (bound %v)", i, d, bound)
		}
		if !rst.Terminal() {
			sawInFlight = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawInFlight {
		t.Error("never observed an in-flight state; synthesis too fast for the poll loop")
	}
	if st, err := c.WaitReconfigure(context.Background()); err != nil || st.State != netproto.ReconfigApplied {
		t.Fatalf("final wait: %v %+v", err, st)
	}
}

// TestWaitReconfigureHeld: the server parks a CmdWaitReconfig exchange
// and answers the instant the swap lands — the client needs exactly
// one held exchange, not a poll loop.
func TestWaitReconfigureHeld(t *testing.T) {
	_, addr, _, _ := startSystemNode(t, 1, reconfigSynth)
	c := dial(t, addr)

	st, err := c.ReconfigureAsync(specFor(8 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.Terminal() {
		t.Fatalf("miss acked terminally: %+v", st)
	}
	final, err := c.WaitReconfigure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.State != netproto.ReconfigApplied || final.CacheHit {
		t.Fatalf("held wait returned %+v", final)
	}

	// A second reconfigure to the now-cached point applies in the ack.
	st, err = c.ReconfigureAsync(specFor(4 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != netproto.ReconfigApplied || !st.CacheHit {
		t.Fatalf("cached reconfigure acked %+v, want immediate applied hit", st)
	}
}

// TestReconfigureDeferredBehindRun: a full swap requested while a
// program runs parks as ReconfigSwapping and lands when the run
// completes, without killing the run.
func TestReconfigureDeferredBehindRun(t *testing.T) {
	_, addr, systems, _ := startSystemNode(t, 1, synth.Options{BitstreamBytes: 256})
	c := dial(t, addr)

	obj := assembleAt(t, spinProg)
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	const budget = 3_000_000
	if err := c.StartAsync(obj.Origin, budget); err != nil {
		t.Fatal(err)
	}

	// Swap to a configuration differing beyond the caches (SDRAM burst)
	// so the partial path cannot serve it: the swap must defer.
	spec, _ := json.Marshal(core.Spec{DCacheBytes: 8 << 10, BurstWords: 8})
	st, err := c.ReconfigureAsync(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Terminal() {
		t.Fatalf("swap applied under a live run: %+v", st)
	}

	// The run completes on its cycle budget; the deferred swap then
	// lands via the run-done pump, after the run's report is out.
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	checkSpunOut(t, rep, budget)
	final, err := c.WaitReconfigure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.State != netproto.ReconfigApplied {
		t.Fatalf("deferred swap ended %+v", final)
	}
	if got := systems[0].Config().DCache.SizeBytes; got != 8<<10 {
		t.Errorf("D$ after deferred swap = %d", got)
	}
}

// TestPrewarmOverWire: one prewarm request queues a sweep on the
// synthesis pool; subsequent reconfigures to those points are hits.
func TestPrewarmOverWire(t *testing.T) {
	_, addr, _, m := startSystemNode(t, 1, synth.Options{BitstreamBytes: 256})
	c := dial(t, addr)

	specs := []json.RawMessage{
		json.RawMessage(specFor(2 << 10)),
		json.RawMessage(specFor(8 << 10)),
	}
	queued, err := c.Prewarm(specs)
	if err != nil {
		t.Fatal(err)
	}
	if queued != 2 {
		t.Errorf("prewarm queued %d, want 2", queued)
	}
	// Wait for the pool to drain, then both points must hit.
	deadline := time.Now().Add(10 * time.Second)
	for m.Cache().Len() < 3 { // boot config + 2 prewarmed
		if time.Now().After(deadline) {
			t.Fatalf("prewarm never completed: %d cached", m.Cache().Len())
		}
		time.Sleep(time.Millisecond)
	}
	for _, spec := range specs {
		st, err := c.ReconfigureAsync([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if st.State != netproto.ReconfigApplied || !st.CacheHit {
			t.Fatalf("post-prewarm reconfigure acked %+v, want immediate hit", st)
		}
	}

	// The reconfiguration service's gauges travel in the same CmdStats
	// snapshot every other instrument uses.
	blob, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("stats is not a metrics snapshot: %v\n%s", err, blob)
	}
	if got := snap.Gauges["liquid_reconfig_synth_runs"]; got < 3 {
		t.Errorf("liquid_reconfig_synth_runs = %v over the wire, want >= 3 (boot + 2 prewarmed)", got)
	}
	if got := snap.Gauges["liquid_reconfig_cache_entries"]; got < 3 {
		t.Errorf("liquid_reconfig_cache_entries = %v over the wire, want >= 3", got)
	}
}

// TestDeferredSwapLandsBeforeNextCommand: a full swap deferred behind a
// run lands when the run ends, although no client waits on the swap:
// every wake pumps the pending reconfiguration before the worker takes
// its next command, so a GetConfig (which does not pump) sent after the
// run's result already reports the new configuration.
func TestDeferredSwapLandsBeforeNextCommand(t *testing.T) {
	_, addr, _, _ := startSystemNode(t, 1, synth.Options{BitstreamBytes: 256})
	c := dial(t, addr)

	obj := assembleAt(t, spinProg)
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	const budget = 20_000_000
	if err := c.StartAsync(obj.Origin, budget); err != nil {
		t.Fatal(err)
	}
	// A change beyond the caches (SDRAM burst) needs a full swap, which
	// waits for the run.
	spec, _ := json.Marshal(core.Spec{DCacheBytes: 8 << 10, BurstWords: 8})
	if _, err := c.ReconfigureAsync(spec); err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.ReconfigStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == netproto.ReconfigSwapping {
			break
		}
		if st.Terminal() {
			t.Fatalf("swap ended %+v before the run did: lengthen the run", st)
		}
		time.Sleep(time.Millisecond)
	}
	// The parked wait is answered from the board that ran the spin,
	// before the swap reloads it.
	rep, err := c.WaitResult()
	if err != nil {
		t.Fatal(err)
	}
	checkSpunOut(t, rep, budget)
	blob, err := c.GetConfig()
	if err != nil {
		t.Fatal(err)
	}
	var got core.Spec
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.DCacheBytes != 8<<10 || got.BurstWords != 8 {
		t.Errorf("config after the run = %s, want the deferred swap's (8 KiB D$, burst 8)", blob)
	}
}

// TestSynthesisWakeLeavesResultWaitParked: a synthesis that finishes
// while a CmdWaitResult is parked on a running board wakes the worker,
// which lands the cache-only swap mid-run and leaves the result wait
// parked, since its answer is not final yet. Only the run's end
// releases it: one "done" wakeup in all. The wakeups are counted, not
// the held exchanges: a run that outlasts the hold (under -race) has
// the wait expire and re-arm, which counts as "expired".
func TestSynthesisWakeLeavesResultWaitParked(t *testing.T) {
	srv, addr, systems, _ := startSystemNode(t, 1, reconfigSynth)
	runner := dial(t, addr)

	obj := assembleAt(t, spinProg)
	if err := runner.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	// The run must outlast the ~36 ms synthesis; the race detector slows
	// stepping about tenfold.
	budget := uint64(30_000_000)
	if raceEnabled {
		budget /= 8
	}
	if err := runner.StartAsync(obj.Origin, budget); err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep netproto.RunReport
		err error
	}
	waited := make(chan result, 1)
	go func() {
		rep, err := runner.WaitResult()
		waited <- result{rep, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot().Counters["liquid_server_waits_parked_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the result wait never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// A D-cache size the node has not synthesized: a cache-only swap
	// that lands when the synthesis wake pumps it. Nothing else pumps:
	// no status poll and no reconfigure wait follow.
	c := dial(t, addr)
	if st, err := c.ReconfigureAsync(specFor(8 << 10)); err != nil || st.Terminal() {
		t.Fatalf("reconfigure ack: %v %+v", err, st)
	}
	for systems[0].Config().DCache.SizeBytes != 8<<10 {
		if time.Now().After(deadline) {
			t.Fatal("the synthesis wake never landed the swap")
		}
		time.Sleep(time.Millisecond)
	}
	if systems[0].AsyncCtrl().State() != leon.StateRunning {
		t.Fatal("the run ended before the swap landed: lengthen the run")
	}

	r := <-waited
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkSpunOut(t, r.rep, budget)
	if got := srv.Metrics().Snapshot().Counter(`liquid_server_wait_wakeups_total{reason="done"}`); got != 1 {
		t.Errorf(`wait_wakeups_total{reason="done"} = %d, want 1: the synthesis wake released the result wait before its answer was final`, got)
	}
}

// checkSpunOut fails t unless rep is the report of the spinProg run
// that ended on its cycle budget: a fault (budget exhausted) after
// about budget cycles. A board a full swap reloaded before the wait was
// answered reports an idle board's zero result instead.
func checkSpunOut(t *testing.T, rep netproto.RunReport, budget uint64) {
	t.Helper()
	if rep.Status != netproto.StatusFault || rep.Cycles < budget*99/100 || rep.Cycles > budget+1000 {
		t.Fatalf("run report %+v, want the spin's own: a budget fault after ~%d cycles", rep, budget)
	}
}
