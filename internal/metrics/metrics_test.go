package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	vec := r.CounterVec("test_labelled_total", "a labelled counter", "kind")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				vec.With("a").Inc()
				vec.With("b").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	s := r.Snapshot()
	if got := s.Counter(`test_labelled_total{kind="a"}`); got != workers*perWorker {
		t.Errorf("vec a = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counter(`test_labelled_total{kind="b"}`); got != 2*workers*perWorker {
		t.Errorf("vec b = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	// Bounds are inclusive upper edges.
	h.Observe(1)    // → le=1
	h.Observe(1.01) // → le=10
	h.Observe(10)   // → le=10
	h.Observe(100)  // → le=100
	h.Observe(101)  // → +Inf
	hv := r.Snapshot().Histograms["lat"]
	wantCum := []uint64{1, 3, 4, 5} // cumulative per bucket
	if len(hv.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(hv.Buckets))
	}
	for i, b := range hv.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] (le=%s) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if hv.Buckets[3].LE != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", hv.Buckets[3].LE)
	}
	if hv.Count != 5 {
		t.Errorf("count = %d, want 5", hv.Count)
	}
	if want := 1 + 1.01 + 10 + 100 + 101; hv.Sum != want {
		t.Errorf("sum = %v, want %v", hv.Sum, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000 {
		t.Errorf("sum = %v, want 8000", h.Sum())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("iso_total", "")
	g := r.Gauge("iso_gauge", "")
	h := r.Histogram("iso_hist", "", []float64{1})
	c.Inc()
	g.Set(5)
	h.Observe(0.5)
	snap := r.Snapshot()
	// Mutate after the snapshot; the snapshot must not move.
	c.Add(100)
	g.Set(-1)
	h.Observe(2)
	if got := snap.Counter("iso_total"); got != 1 {
		t.Errorf("snapshot counter moved: %d", got)
	}
	if got := snap.Gauges["iso_gauge"]; got != 5 {
		t.Errorf("snapshot gauge moved: %v", got)
	}
	if got := snap.Histograms["iso_hist"].Count; got != 1 {
		t.Errorf("snapshot histogram moved: %d", got)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("fn_gauge", "", func() float64 { return v })
	if got := r.Snapshot().Gauges["fn_gauge"]; got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}
	v = 42
	if got := r.Snapshot().Gauges["fn_gauge"]; got != 42 {
		t.Errorf("gauge = %v, want 42", got)
	}
}

func TestCounterFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	var v uint64 = 3
	r.CounterFunc("fn_total", "A computed counter.", func() uint64 { return v })
	if got := r.Snapshot().Counter("fn_total"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	v = 9
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE fn_total counter\nfn_total 9\n"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, b.String())
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	if g.Value() != 4 {
		t.Errorf("gauge = %v, want 4", g.Value())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "")
	b := r.Counter("same_total", "")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("same_total", "")
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.CounterVec("y", "", "l").With("v").Inc()
	r.Gauge("z", "").Set(1)
	r.GaugeFunc("w", "", func() float64 { return 0 })
	r.Histogram("h", "", []float64{1}).Observe(1)
	r.HistogramVec("hv", "", "l", []float64{1}).With("v").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Error("nil registry recorded metrics")
	}
	var c *Counter
	c.Inc() // must not panic
	var h *Histogram
	h.Observe(1)
	var g *Gauge
	g.Add(1)
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(2.5)
	r.Histogram("c", "", []float64{1, 2}).Observe(1.5)
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counter("a_total") != 3 || got.Gauges["b"] != 2.5 {
		t.Errorf("round trip lost values: %+v", got)
	}
	if got.Histograms["c"].Count != 1 || len(got.Histograms["c"].Buckets) != 3 {
		t.Errorf("round trip lost histogram: %+v", got.Histograms["c"])
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "l").With(`a"b\c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{l="a\"b\\c"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}
