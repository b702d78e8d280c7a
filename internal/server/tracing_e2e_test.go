package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

// spanCounts tallies span names per source in a Chrome export.
func spanCounts(t *testing.T, data []byte) (map[string]int, map[string]string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			procs[ev.Pid] = ev.Args["name"]
		}
	}
	counts := map[string]int{}
	traceIDs := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		key := procs[ev.Pid] + "/" + ev.Name
		counts[key]++
		traceIDs[ev.Args["trace"]] = ev.Name
	}
	return counts, traceIDs
}

// TestTracedExchangeUnderChaosSim is the tracing acceptance test: a
// full traced session against a 2-board node behind a stormy fabric
// link (pinned seed, 20% loss + reorder + dup both ways) produces one
// merged Chrome timeline where the client's retries, the server's
// queue waits, the board's run slices and the link's fault annotations
// all share a single trace id — and the client's retry-span count
// equals its retries metric.
func TestTracedExchangeUnderChaosSim(t *testing.T) {
	iters := 50_000
	if raceEnabled || testing.Short() {
		iters = 20_000
	}
	obj := assembleAt(t, countProg(iters))
	const seed = 42

	// 2-board node, tracing enabled before the first datagram.
	w := sim.NewWorld(seed)
	t.Cleanup(w.Close)
	srv, addr := newSimNode(t, w,
		simBoard(t, w.Clock, [4]byte{10, 0, 0, 2}),
		simBoard(t, w.Clock, [4]byte{10, 0, 0, 3}))
	serverCol := tracing.New("server")
	srv.EnableTracing(serverCol)
	serveNode(t, srv)

	chaosCol := tracing.New("chaos")
	storm := simStorm()
	storm.Tracer = chaosCol
	c, _ := dialSim(t, w, addr, seed, storm)
	c.Board = 1
	clientCol := tracing.New("client")
	c.Tracer = clientCol
	c.TraceID = clientCol.NewTraceID()

	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := c.Start(obj.Origin, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	retries := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]
	if retries == 0 {
		t.Fatal("client never retried under 20% loss — test proved nothing")
	}

	// Give the board actor a beat to finish the run's trailing spans,
	// then merge all three vantage points.
	time.Sleep(50 * time.Millisecond)
	data, err := tracing.ChromeJSON(
		clientCol.TakeTrace(c.TraceID),
		serverCol.TakeTrace(c.TraceID),
		chaosCol.TakeTrace(c.TraceID),
	)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if _, err := tracing.ValidateChrome(data); err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}

	counts, traceIDs := spanCounts(t, data)
	if len(traceIDs) != 1 {
		t.Errorf("merged export spans %d trace ids, want exactly 1: %v", len(traceIDs), traceIDs)
	}
	want := fmt.Sprintf("%016x", c.TraceID)
	for id := range traceIDs {
		if id != want {
			t.Errorf("span trace id %s != client id %s", id, want)
		}
	}
	if got := counts["client/retry"]; uint64(got) != retries {
		t.Errorf("retry spans = %d, retries metric = %d — they must agree", got, retries)
	}
	if counts["server/queue"] == 0 {
		t.Error("no server queue-wait spans in the merged timeline")
	}
	if counts["server/slice"] == 0 {
		t.Error("no board run-slice spans in the merged timeline")
	}
	faults := 0
	for key, n := range counts {
		if strings.HasPrefix(key, "chaos/fault:") {
			faults += n
		}
	}
	if faults == 0 {
		t.Error("no chaos fault annotations in the merged timeline")
	}
}

// TestFlightRecordServesFailedExchange is the black-box acceptance
// path: after a forced CmdError, /debug/flightrecord returns a dump
// containing the failed exchange's trace.
func TestFlightRecordServesFailedExchange(t *testing.T) {
	boards := []*fpx.Platform{
		newBoard(t, [4]byte{10, 0, 0, 2}),
		newBoard(t, [4]byte{10, 0, 0, 3}),
	}
	srv, err := NewNode("127.0.0.1:0", boards...)
	if err != nil {
		t.Fatal(err)
	}
	col := tracing.New("server")
	srv.EnableTracing(col)
	fr := &tracing.FlightRecorder{
		Collectors: []*tracing.Collector{col},
		Events:     srv.Events(),
		Dir:        t.TempDir(),
	}
	srv.SetFlightRecorder(fr)
	addr := serveNode(t, srv)

	c := dial(t, addr)
	clientCol := tracing.New("client")
	c.Tracer = clientCol
	c.TraceID = clientCol.NewTraceID()

	// Start with nothing loaded → the platform answers CmdError and the
	// flight recorder dumps.
	if err := c.StartAsync(0, 10); err == nil {
		t.Fatal("start without load unexpectedly succeeded")
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight dumps = %d, want 1", fr.Dumps())
	}

	h := tracing.NewDebugHandler(nil, fr, srv.Events(), col)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecord", nil))
	var dump tracing.FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/flightrecord: %v", err)
	}
	found := false
	for _, td := range dump.Traces {
		if td.ID == c.TraceID {
			found = true
			for _, sp := range td.Spans {
				if sp.Name == "handle:start" {
					for _, a := range sp.Attrs {
						if a.Key == "status" && a.Value != "error" {
							t.Errorf("failed exchange span status %q, want error", a.Value)
						}
					}
				}
			}
		}
	}
	if !found {
		t.Errorf("failed exchange's trace %#x not in flight record (%d traces)", c.TraceID, len(dump.Traces))
	}
}

// TestRetrySpansMatchRetriesMetricSim is the narrow chaos-harness
// check: one traced status exchange at a time under 20% loss, for every
// pinned seed — across the whole session the number of "retry" spans
// recorded by the client equals its retries counter exactly.
func TestRetrySpansMatchRetriesMetricSim(t *testing.T) {
	lossy := sim.LinkParams{Drop: 0.2, Latency: 200 * time.Microsecond}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, _, addr := emulatorSimNode(t, seed)
			c, _ := dialSim(t, w, addr, seed, lossy)
			col := tracing.New("client")
			c.Tracer = col
			c.TraceID = col.NewTraceID()

			for i := 0; i < 20; i++ {
				if _, err := c.Status(); err != nil {
					t.Fatalf("status %d: %v", i, err)
				}
			}
			retries := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]

			spans := 0
			for _, td := range col.TakeTrace(c.TraceID) {
				for _, sp := range td.Spans {
					if sp.Name == "retry" {
						spans++
					}
				}
			}
			if uint64(spans) != retries {
				t.Errorf("retry spans = %d, retries metric = %d", spans, retries)
			}
		})
	}
}

// newTracingNode boots a one-board tracing node with a flight recorder
// and serves it on loopback.
func newTracingNode(t *testing.T, board *fpx.Platform) (*Server, *tracing.Collector, *tracing.FlightRecorder, string) {
	t.Helper()
	srv, err := NewNode("127.0.0.1:0", board)
	if err != nil {
		t.Fatal(err)
	}
	col := tracing.New("server")
	srv.EnableTracing(col)
	fr := &tracing.FlightRecorder{
		Collectors: []*tracing.Collector{col},
		Events:     srv.Events(),
		Dir:        t.TempDir(),
	}
	srv.SetFlightRecorder(fr)
	return srv, col, fr, serveNode(t, srv)
}

// waitTracingIdle waits until the node's collector has no active
// trace: a server-assigned trace is finished just after its reply is
// sent, so the last one may still be open when the client returns.
func waitTracingIdle(t *testing.T, srv *Server) metrics.Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.Metrics().Snapshot()
		if snap.Gauges["liquid_tracing_active_traces"] == 0 {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never went idle: %v active traces", snap.Gauges["liquid_tracing_active_traces"])
		}
		time.Sleep(time.Millisecond)
	}
}

// spanNames counts a trace's spans by name.
func spanNames(td tracing.TraceData) map[string]int {
	n := map[string]int{}
	for _, sp := range td.Spans {
		n[sp.Name]++
	}
	return n
}

// TestUntracedExchangesLeaveNoActiveTraces: on a tracing node, an
// untraced client's exchanges (loads, starts, parked waits, reads) each
// get a server-assigned trace that ends with the exchange. Once the
// node is idle no trace is active, the cap never retired one, no span
// was dropped, and the completed ring holds the last DefMaxDone
// exchanges, one queue span each and no run spans.
func TestUntracedExchangesLeaveNoActiveTraces(t *testing.T) {
	srv, col, _, addr := newTracingNode(t, newBoard(t, [4]byte{10, 0, 0, 2}))
	c := dial(t, addr)
	obj := assembleAt(t, countProg(2_000))
	for srv.Metrics().Snapshot().Counter("liquid_server_datagrams_in_total") < 500 {
		if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		if err := c.StartAsync(obj.Origin, 0); err != nil {
			t.Fatal(err)
		}
		if rep, err := c.WaitResult(); err != nil || rep.Status != netproto.StatusOK {
			t.Fatalf("wait: %+v, %v", rep, err)
		}
		if _, err := c.ReadMemory(obj.Origin, 4); err != nil {
			t.Fatal(err)
		}
	}
	snap := waitTracingIdle(t, srv)
	if got := snap.Counter("liquid_tracing_retired_total"); got != 0 {
		t.Errorf("liquid_tracing_retired_total = %d, want 0: untraced exchanges must not fill the active map", got)
	}
	if got := snap.Counter("liquid_tracing_spans_dropped_total"); got != 0 {
		t.Errorf("liquid_tracing_spans_dropped_total = %d, want 0", got)
	}
	done := col.Completed()
	if len(done) != tracing.DefMaxDone {
		t.Fatalf("completed ring holds %d traces, want the last %d exchanges", len(done), tracing.DefMaxDone)
	}
	for _, td := range done {
		names := spanNames(td)
		if names["queue"] != 1 || names["run"] != 0 || names["slice"] != 0 {
			t.Fatalf("trace %#x is not one untraced exchange: %v", td.ID, names)
		}
	}
}

// TestNeverFetchedClientTracesFillTheCap: a client that names a new
// trace per exchange and never fetches one fills the active map to the
// cap; every trace past it retires one, counted on /metrics.
func TestNeverFetchedClientTracesFillTheCap(t *testing.T) {
	srv, _, _, addr := newTracingNode(t, newBoard(t, [4]byte{10, 0, 0, 2}))
	c := dial(t, addr)
	const ids = 200
	for i := 1; i <= ids; i++ {
		c.TraceID = uint64(i)
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Gauges["liquid_tracing_active_traces"]; got != tracing.DefMaxActive {
		t.Errorf("liquid_tracing_active_traces = %v, want the cap %d", got, tracing.DefMaxActive)
	}
	if got := snap.Counter("liquid_tracing_retired_total"); got != ids-tracing.DefMaxActive {
		t.Errorf("liquid_tracing_retired_total = %d, want %d", got, ids-tracing.DefMaxActive)
	}
}

// TestFlightRecordServesUntracedFailedExchange: a failed start from a
// client that sends no trace id is in the flight dump all the same,
// under its server-assigned trace, with its queue wait and its
// handle:start error span.
func TestFlightRecordServesUntracedFailedExchange(t *testing.T) {
	_, _, fr, addr := newTracingNode(t, newBoard(t, [4]byte{10, 0, 0, 2}))
	c := dial(t, addr)
	if err := c.StartAsync(0, 10); err == nil {
		t.Fatal("start without load unexpectedly succeeded")
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight dumps = %d, want 1", fr.Dumps())
	}
	files, err := filepath.Glob(filepath.Join(fr.Dir, "flightrec-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("dump files %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump tracing.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	for _, td := range dump.Traces {
		for _, sp := range td.Spans {
			if sp.Name != "handle:start" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "error" && a.Value == "true" {
					if spanNames(td)["queue"] != 1 {
						t.Errorf("failed exchange's trace lacks its queue span: %v", spanNames(td))
					}
					return
				}
			}
		}
	}
	t.Fatalf("no handle:start error span in the flight dump (%d traces)", len(dump.Traces))
}

// TestRunSpansNeedClientTrace: an untraced start runs without recording
// (its exchange-scoped trace is over before the run ends), while a
// client-traced run still carries its run span and the slice spans
// nested under it.
func TestRunSpansNeedClientTrace(t *testing.T) {
	restoreGOMAXPROCS(t)
	sys, err := core.New(leon.DefaultConfig(), core.Options{Synth: synth.Options{BitstreamBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	srv, col, _, addr := newTracingNode(t, sys.Platform())
	c := dial(t, addr)
	obj := assembleAt(t, countProg(50_000))
	run := func() {
		t.Helper()
		if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		if rep, err := c.Start(obj.Origin, 0); err != nil || rep.Status != netproto.StatusOK {
			t.Fatalf("run: %+v, %v", rep, err)
		}
	}

	run()
	snap := waitTracingIdle(t, srv)
	for _, td := range col.Completed() {
		if names := spanNames(td); names["run"] != 0 || names["slice"] != 0 {
			t.Errorf("untraced run recorded spans into trace %#x: %v", td.ID, names)
		}
	}
	if got := snap.Counter("liquid_tracing_spans_dropped_total"); got != 0 {
		t.Errorf("untraced run dropped %d spans; it should record none", got)
	}

	c.TraceID = col.NewTraceID()
	run()
	var runID uint64
	slices := 0
	for _, td := range col.TakeTrace(c.TraceID) {
		for _, sp := range td.Spans {
			if sp.Name == "run" {
				runID = sp.ID
			}
		}
		for _, sp := range td.Spans {
			if sp.Name == "slice" && sp.Parent == runID && runID != 0 {
				slices++
			}
		}
	}
	if runID == 0 || slices == 0 {
		t.Fatalf("client-traced run: run span %v, %d slice spans under it", runID != 0, slices)
	}
}
