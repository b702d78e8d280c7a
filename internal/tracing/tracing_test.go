package tracing

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/metrics/eventlog"
)

func TestSpanTree(t *testing.T) {
	c := New("test")
	id := c.NewTraceID()
	if id == 0 {
		t.Fatal("NewTraceID returned 0")
	}
	tc := c.Trace(id)
	root := tc.Start("exchange")
	child := root.Ctx().Start("retry").WithAttr("attempt", "1")
	child.EndAttrs(A("why", "timeout"))
	root.End()

	tds := c.TakeTrace(id)
	if len(tds) != 1 {
		t.Fatalf("TakeTrace: got %d traces, want 1", len(tds))
	}
	spans := tds[0].Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans record at End time: child first.
	if spans[0].Name != "retry" || spans[1].Name != "exchange" {
		t.Fatalf("span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent=%d, want root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Trace != id || spans[1].Trace != id {
		t.Fatal("trace id not stamped on spans")
	}
	if len(spans[0].Attrs) != 2 {
		t.Fatalf("child attrs = %v, want attempt+why", spans[0].Attrs)
	}
	if spans[0].Source != "test" {
		t.Fatalf("source = %q", spans[0].Source)
	}
}

func TestDisabledIsNoOpAndAllocFree(t *testing.T) {
	var c *Collector // nil = disabled
	tc := c.Trace(42)
	if tc.On() {
		t.Fatal("nil collector produced an On() context")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tc.Start("exchange")
		child := sp.Ctx().Start("retry")
		if child.On() {
			child = child.WithAttr("k", "v")
		}
		child.End()
		sp.End()
		tc.Event("fault")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %.1f allocs/op", allocs)
	}
	// Zero-id trace on a live collector is also disabled.
	live := New("x")
	if live.Trace(0).On() {
		t.Fatal("trace id 0 produced an On() context")
	}
}

func TestSpanBufferBound(t *testing.T) {
	c := New("test")
	c.MaxSpans = 4
	id := c.NewTraceID()
	tc := c.Trace(id)
	for i := 0; i < 10; i++ {
		tc.Start("s").End()
	}
	tds := c.TakeTrace(id)
	if len(tds) != 1 {
		t.Fatalf("got %d traces", len(tds))
	}
	if len(tds[0].Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tds[0].Spans))
	}
	if tds[0].Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", tds[0].Dropped)
	}
	if c.SpansDropped() != 6 {
		t.Fatalf("collector SpansDropped = %d, want 6", c.SpansDropped())
	}
}

func TestActiveCapRetiresStalest(t *testing.T) {
	c := New("test")
	c.MaxActive = 2
	c.HarvestIdle = time.Hour // disable lazy harvest
	a, b, d := c.NewTraceID(), c.NewTraceID(), c.NewTraceID()
	c.Trace(a).Start("a").End()
	time.Sleep(2 * time.Millisecond)
	c.Trace(b).Start("b").End()
	time.Sleep(2 * time.Millisecond)
	c.Trace(d).Start("d").End() // evicts a (stalest)
	if got := c.ActiveCount(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	done := c.Completed()
	if len(done) != 1 || done[0].ID != a {
		t.Fatalf("completed = %+v, want trace %d retired", done, a)
	}
}

func TestDoneRingBound(t *testing.T) {
	c := New("test")
	c.MaxDone = 3
	var ids []uint64
	for i := 0; i < 5; i++ {
		id := c.NewTraceID()
		ids = append(ids, id)
		c.Trace(id).Start("s").End()
		c.Finish(id)
	}
	done := c.Completed()
	if len(done) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(done))
	}
	// Oldest first: ids[2], ids[3], ids[4].
	for i, td := range done {
		if td.ID != ids[2+i] {
			t.Fatalf("ring[%d] = trace %d, want %d", i, td.ID, ids[2+i])
		}
	}
}

func TestLazyHarvest(t *testing.T) {
	c := New("test")
	c.HarvestIdle = 5 * time.Millisecond
	id := c.NewTraceID()
	c.Trace(id).Start("s").End()
	if got := len(c.Completed()); got != 0 {
		t.Fatalf("harvested %d traces before idle window", got)
	}
	time.Sleep(15 * time.Millisecond)
	if got := len(c.Completed()); got != 1 {
		t.Fatalf("harvested %d traces after idle window, want 1", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New("test")
	id := c.NewTraceID()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := c.Trace(id)
			for i := 0; i < 50; i++ {
				sp := tc.Start("op")
				sp.Ctx().Event("tick")
				sp.End()
			}
		}()
	}
	wg.Wait()
	tds := c.TakeTrace(id)
	if len(tds) != 1 {
		t.Fatalf("got %d traces", len(tds))
	}
	if got := len(tds[0].Spans) + int(tds[0].Dropped); got != 800 {
		t.Fatalf("spans+dropped = %d, want 800", got)
	}
}

func TestChromeJSONExportAndValidate(t *testing.T) {
	cli := New("client")
	srv := New("server")
	id := cli.NewTraceID()

	root := cli.Trace(id).Start("run")
	time.Sleep(time.Millisecond)
	q := srv.Trace(id).Start("queue")
	q.End()
	srv.Trace(id).Start("slice").WithAttr("board", "1").End()
	root.End()

	data, err := ChromeJSON(cli.TakeTrace(id), srv.TakeTrace(id))
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(data)
	if err != nil {
		t.Fatalf("ValidateChrome: %v\n%s", err, data)
	}
	if n != 3 {
		t.Fatalf("validated %d spans, want 3", n)
	}
	// Both sources present as named processes.
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args["name"]] = true
		}
	}
	if !procs["client"] || !procs["server"] {
		t.Fatalf("process metadata = %v, want client+server", procs)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	if _, err := ValidateChrome([]byte("not json")); err == nil {
		t.Fatal("garbage validated")
	}
	if _, err := ValidateChrome([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace validated")
	}
}

func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	c := New("server")
	ev := eventlog.New(16)
	ev.Errorf("bad frame", "cmd", "start")
	id := c.NewTraceID()
	c.Trace(id).Start("exchange").End()
	c.Finish(id)

	fr := &FlightRecorder{Collectors: []*Collector{c}, Events: ev, Dir: dir, MinInterval: time.Hour}
	path, err := fr.Dump("cmd_error")
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("first dump rate-limited")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Reason != "cmd_error" || len(d.Traces) != 1 || d.Traces[0].ID != id {
		t.Fatalf("dump = %+v", d)
	}
	if len(d.Events) != 1 || d.Events[0].Msg != "bad frame" {
		t.Fatalf("dump events = %+v", d.Events)
	}
	if !strings.Contains(filepath.Base(path), "cmd_error") {
		t.Fatalf("dump filename %q lacks reason", path)
	}

	// Second dump inside MinInterval is suppressed.
	p2, err := fr.Dump("cmd_error")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != "" {
		t.Fatalf("rate limit failed: second dump wrote %q", p2)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", fr.Dumps())
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var fr *FlightRecorder
	if p, err := fr.Dump("x"); err != nil || p != "" {
		t.Fatalf("nil Dump = %q, %v", p, err)
	}
	d := fr.Snapshot("x")
	if d.Reason != "x" {
		t.Fatalf("nil Snapshot = %+v", d)
	}
}

// TestLateSpanCountedAsDropped: a span that ends after its trace
// completed is counted in SpansDropped, and the completed trace does
// not change under it.
func TestLateSpanCountedAsDropped(t *testing.T) {
	c := New("test")
	id := c.NewTraceID()
	tc := c.Trace(id)
	late := tc.Start("late")
	tc.Start("early").End()
	c.Finish(id)
	late.End()
	tc.Event("later")
	if got := c.SpansDropped(); got != 2 {
		t.Fatalf("SpansDropped = %d, want 2 (the two spans ending after Finish)", got)
	}
	done := c.Completed()
	if len(done) != 1 || len(done[0].Spans) != 1 || done[0].Spans[0].Name != "early" {
		t.Fatalf("completed = %+v, want the one span recorded before Finish", done)
	}
	if c.ActiveCount() != 0 {
		t.Fatalf("a late span reopened the trace: active = %d", c.ActiveCount())
	}
}

// TestRetiredCountsOnlyCapRetirements: Retired counts the traces the
// active cap force-completed, not those finished, fetched or harvested.
func TestRetiredCountsOnlyCapRetirements(t *testing.T) {
	c := New("test")
	c.MaxActive = 4
	c.HarvestIdle = time.Hour
	for i := 0; i < 10; i++ {
		id := c.NewTraceID()
		c.Trace(id).Start("s").End()
		c.Finish(id)
	}
	if got := c.Retired(); got != 0 {
		t.Fatalf("finished traces counted as retired: %d", got)
	}
	for i := 0; i < 10; i++ {
		c.Trace(c.NewTraceID()).Start("s").End()
	}
	if got, want := c.Retired(), uint64(10-4); got != want {
		t.Fatalf("Retired = %d, want %d", got, want)
	}
	if got := c.ActiveCount(); got != 4 {
		t.Fatalf("active = %d, want the cap 4", got)
	}
}

// TestActiveCapKeepsBusyTraces: at the cap, a trace that keeps
// recording survives while idle ones are retired around it.
func TestActiveCapKeepsBusyTraces(t *testing.T) {
	c := New("test")
	c.MaxActive = 8
	c.HarvestIdle = time.Hour
	busy := c.NewTraceID()
	c.Trace(busy).Start("s").End()
	for i := 0; i < 100; i++ {
		c.Trace(c.NewTraceID()).Event("once")
		c.Trace(busy).Event("again")
	}
	if got := len(c.TakeTrace(busy)); got != 1 {
		t.Fatalf("busy trace split into %d ring entries; the cap retired it", got)
	}
}

// traceAtCapNs and traceBelowCapNs time one Trace → span → (Finish)
// cycle: with the active map full of never-finished traces (each new
// trace forces a retirement), and with one exchange-scoped trace that
// finishes below the cap.
func traceAtCapNs(c *Collector, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Trace(c.NewTraceID()).Start("queue").End()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func traceBelowCapNs(c *Collector, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		id := c.NewTraceID()
		c.Trace(id).Start("queue").End()
		c.Finish(id)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// fullCollector returns a collector whose active map sits at the cap.
func fullCollector() *Collector {
	c := New("server")
	for i := 0; i < DefMaxActive; i++ {
		c.Trace(c.NewTraceID()).Start("queue").End()
	}
	return c
}

// TestRetirementAtCapIsCheap gates the amortized O(1) retirement: a new
// trace at the active cap costs at most twice a trace that completes
// below it (median of 5 alternating rounds, both measured here).
func TestRetirementAtCapIsCheap(t *testing.T) {
	const n, rounds, ceiling = 20_000, 5, 2.0
	full, empty := fullCollector(), New("server")
	var atCap, below []float64
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			atCap = append(atCap, traceAtCapNs(full, n))
			below = append(below, traceBelowCapNs(empty, n))
		} else {
			below = append(below, traceBelowCapNs(empty, n))
			atCap = append(atCap, traceAtCapNs(full, n))
		}
	}
	if full.ActiveCount() != DefMaxActive || full.Retired() != uint64(rounds*n) {
		t.Fatalf("at-cap collector: active %d, retired %d; want %d, %d",
			full.ActiveCount(), full.Retired(), DefMaxActive, rounds*n)
	}
	sort.Float64s(atCap)
	sort.Float64s(below)
	ratio := atCap[rounds/2] / below[rounds/2]
	if ratio > ceiling {
		t.Fatalf("Trace at the cap: %.0f ns/op, %.2fx a completed exchange below it (%.0f ns/op); ceiling %.1fx",
			atCap[rounds/2], ratio, below[rounds/2], ceiling)
	}
	t.Logf("at cap %.0f ns/op, below %.0f ns/op: %.2fx", atCap[rounds/2], below[rounds/2], ratio)
}

// BenchmarkTraceAtCap: each op opens a new trace on a collector whose
// active map is full, forcing one retirement.
func BenchmarkTraceAtCap(b *testing.B) {
	c := fullCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Trace(c.NewTraceID()).Start("queue").End()
	}
}

// BenchmarkTraceBelowCap: each op is one completed exchange-scoped
// trace — the baseline BenchmarkTraceAtCap is compared with.
func BenchmarkTraceBelowCap(b *testing.B) {
	c := New("server")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.NewTraceID()
		c.Trace(id).Start("queue").End()
		c.Finish(id)
	}
}

// TestSpanClockReanchors: span timestamps come from an anchor plus the
// monotonic time since it; the anchor is kept within reanchorEvery and
// replaced by a fresh wall-clock reading once older.
func TestSpanClockReanchors(t *testing.T) {
	c := New("test")
	first := c.now()
	anchor := c.epoch.Load()
	if got := c.now(); got.Before(first) || c.epoch.Load() != anchor {
		t.Fatalf("span clock went back (%v < %v) or re-anchored early", got, first)
	}
	stale := first.Add(-2 * reanchorEvery)
	c.epoch.Store(&stale)
	got := c.now()
	if c.epoch.Load() == &stale {
		t.Fatal("an anchor older than reanchorEvery was kept")
	}
	if d := time.Since(got); d < 0 || d > time.Second {
		t.Fatalf("re-anchored span time %v is %v from the wall clock", got, d)
	}
}
