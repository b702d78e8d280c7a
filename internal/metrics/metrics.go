// Package metrics is the platform's telemetry spine: a dependency-free,
// concurrency-safe registry of counters, gauges and fixed-bucket
// histograms. The paper's thesis is measurement — a hardware cycle
// counter and streamed instrumented traces (§1, §3.1) — and this
// package extends that discipline to the software platform itself, so
// the reconfiguration server, the FPX protocol path, the liquid core,
// the memory system and the control client all expose live counters
// instead of printfs.
//
// Design points:
//
//   - Hot paths touch only atomics (Counter.Inc, Histogram.Observe);
//     registration and exposition take the registry lock.
//   - Reads are snapshot-on-read: Snapshot() returns an immutable copy,
//     so scraping never blocks or torn-reads an increment.
//   - Exposition is dual: Prometheus text format (WritePrometheus) for
//     /metrics scrapes and a JSON snapshot for /statusz and the in-band
//     CmdStats control command.
//   - A nil *Registry is fully usable: every constructor returns live
//     (but unregistered) instruments, so instrumented code needs no
//     nil checks and tests can run components bare.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrarily settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bounds are
// inclusive upper edges; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; the last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and branch-predicted;
	// this stays allocation-free on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    string `json:"le"` // upper edge ("+Inf" for the last)
	Count uint64 `json:"count"`
}

// HistogramValue is a histogram in a snapshot.
type HistogramValue struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramValue {
	hv := HistogramValue{Buckets: make([]Bucket, len(h.buckets))}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		hv.Buckets[i] = Bucket{LE: le, Count: cum}
	}
	hv.Count = h.count.Load()
	hv.Sum = h.Sum()
	return hv
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use. The fast path is a read lock.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[value]; ok {
		return c
	}
	c = &Counter{}
	v.children[value] = c
	return c
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	label    string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the histogram for the given label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[value]; ok {
		return h
	}
	h = newHistogram(v.bounds)
	v.children[value] = h
	return h
}

// metric is one registered family.
type metric struct {
	name string
	help string
	kind Kind

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
	cvec      *CounterVec
	hvec      *HistogramVec
	info      []Label
}

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry hands out live but unregistered
// instruments.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register returns the existing family for name after a kind check, or
// records m. Re-registering the same name with the same kind returns
// the original instrument, so packages can be instrumented
// independently against a shared registry.
func (r *Registry) register(name, help string, kind Kind, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := build()
	m.name, m.help, m.kind = name, help, kind
	r.metrics[name] = m
	return m
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	m := r.register(name, help, KindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	})
	return m.counter
}

// CounterVec returns a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return &CounterVec{label: label, children: make(map[string]*Counter)}
	}
	m := r.register(name, help, KindCounter, func() *metric {
		return &metric{cvec: &CounterVec{label: label, children: make(map[string]*Counter)}}
	})
	return m.cvec
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	m := r.register(name, help, KindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	})
	return m.gauge
}

// Label is one key="value" pair on an Info metric.
type Label struct {
	Key   string
	Value string
}

// Info registers a constant-1 gauge whose labels carry build or
// configuration facts — the Prometheus `*_build_info` idiom, where the
// interesting data lives in the label values and the sample value is
// always 1 so the series can be joined onto any other metric.
func (r *Registry) Info(name, help string, labels ...Label) {
	if r == nil {
		return
	}
	ls := append([]Label(nil), labels...)
	r.register(name, help, KindGauge, func() *metric {
		return &metric{info: ls}
	})
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// — the idiom for counters that already live elsewhere (cache hit
// counts, SDRAM controller stats) and are surfaced without touching
// their hot paths.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, KindGauge, func() *metric {
		return &metric{gaugeFn: fn}
	})
}

// CounterFunc registers a counter whose value is read at snapshot time
// — GaugeFunc's twin for monotonic counts that already live elsewhere
// (the tracing collector's retirements and dropped spans).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, KindCounter, func() *metric {
		return &metric{counterFn: fn}
	})
}

// Histogram returns the registered histogram, creating it with the
// given inclusive upper bucket bounds on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	m := r.register(name, help, KindHistogram, func() *metric {
		return &metric{hist: newHistogram(bounds)}
	})
	return m.hist
}

// HistogramVec returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if r == nil {
		return &HistogramVec{label: label, bounds: bounds, children: make(map[string]*Histogram)}
	}
	m := r.register(name, help, KindHistogram, func() *metric {
		return &metric{hvec: &HistogramVec{label: label, bounds: append([]float64(nil), bounds...), children: make(map[string]*Histogram)}}
	})
	return m.hvec
}

// ExpBuckets returns n bounds start, start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets cover microseconds to ~16 s — request handling and
// run wall times.
var DefSecondsBuckets = ExpBuckets(1e-6, 4, 13)

// DefCycleBuckets cover 100 to ~10¹⁰ simulated cycles.
var DefCycleBuckets = ExpBuckets(100, 10, 9)

// Snapshot is a point-in-time copy of every registered family, safe to
// marshal to JSON and stable against later increments.
type Snapshot struct {
	// Counters maps "name" or `name{label="value"}` to the count.
	Counters map[string]uint64 `json:"counters"`
	// Gauges maps names to current values (GaugeFuncs evaluated now).
	Gauges map[string]float64 `json:"gauges"`
	// Histograms maps names to cumulative bucket snapshots.
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Counter returns the snapshot value of a (possibly labelled) counter
// key, 0 when absent.
func (s Snapshot) Counter(key string) uint64 { return s.Counters[key] }

// sortedMetrics returns registered families sorted by name.
func (r *Registry) sortedMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot captures every family.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	for _, m := range r.sortedMetrics() {
		switch {
		case m.counter != nil:
			s.Counters[m.name] = m.counter.Value()
		case m.counterFn != nil:
			s.Counters[m.name] = m.counterFn()
		case m.cvec != nil:
			m.cvec.mu.RLock()
			for lv, c := range m.cvec.children {
				s.Counters[labelKey(m.name, m.cvec.label, lv)] = c.Value()
			}
			m.cvec.mu.RUnlock()
		case m.gauge != nil:
			s.Gauges[m.name] = m.gauge.Value()
		case m.gaugeFn != nil:
			s.Gauges[m.name] = m.gaugeFn()
		case m.info != nil:
			s.Gauges[infoKey(m.name, m.info)] = 1
		case m.hist != nil:
			s.Histograms[m.name] = m.hist.snapshot()
		case m.hvec != nil:
			m.hvec.mu.RLock()
			for lv, h := range m.hvec.children {
				s.Histograms[labelKey(m.name, m.hvec.label, lv)] = h.snapshot()
			}
			m.hvec.mu.RUnlock()
		}
	}
	return s
}

func labelKey(name, label, value string) string {
	return name + `{` + label + `="` + escapeLabel(value) + `"}`
}

// infoKey renders an Info metric's full labelled series name.
func infoKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, m := range r.sortedMetrics() {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.counterFn != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counterFn())
		case m.cvec != nil:
			m.cvec.mu.RLock()
			keys := make([]string, 0, len(m.cvec.children))
			for lv := range m.cvec.children {
				keys = append(keys, lv)
			}
			sort.Strings(keys)
			for _, lv := range keys {
				fmt.Fprintf(&b, "%s %d\n", labelKey(m.name, m.cvec.label, lv), m.cvec.children[lv].Value())
			}
			m.cvec.mu.RUnlock()
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gauge.Value()))
		case m.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gaugeFn()))
		case m.info != nil:
			fmt.Fprintf(&b, "%s 1\n", infoKey(m.name, m.info))
		case m.hist != nil:
			writePromHistogram(&b, m.name, "", "", m.hist.snapshot())
		case m.hvec != nil:
			m.hvec.mu.RLock()
			keys := make([]string, 0, len(m.hvec.children))
			for lv := range m.hvec.children {
				keys = append(keys, lv)
			}
			sort.Strings(keys)
			for _, lv := range keys {
				writePromHistogram(&b, m.name, m.hvec.label, lv, m.hvec.children[lv].snapshot())
			}
			m.hvec.mu.RUnlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, name, label, value string, hv HistogramValue) {
	for _, bk := range hv.Buckets {
		if label == "" {
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, bk.LE, bk.Count)
		} else {
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, escapeLabel(value), bk.LE, bk.Count)
		}
	}
	suffix := ""
	if label != "" {
		suffix = "{" + label + `="` + escapeLabel(value) + `"}`
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatFloat(hv.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, hv.Count)
}
