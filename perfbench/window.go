package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// op is the outcome of one timed operation.
type op struct {
	point  int
	lat    time.Duration
	cycles uint64
	insts  uint64
	err    error
	// run is the host time of the run itself as its caller saw it
	// (in-process workloads only).
	run time.Duration
	// exact holds the op's exact simulated-hardware counts; recorded
	// only in traced windows.
	exact *exactCounts
}

// exactCounts are the deterministic per-run counts of the modelled
// hardware (cpu, cache, mem, ahbadapter layers).
type exactCounts struct {
	dAccesses, dMisses uint64
	iAccesses, iMisses uint64
	sdramRequests      uint64
	rmwCycles          uint64
}

func (e *exactCounts) add(o *exactCounts) {
	e.dAccesses += o.dAccesses
	e.dMisses += o.dMisses
	e.iAccesses += o.iAccesses
	e.iMisses += o.iMisses
	e.sdramRequests += o.sdramRequests
	e.rmwCycles += o.rmwCycles
}

// lane is one closed-loop caller: it issues its next op only when the
// previous one has completed.
type lane struct {
	ops []op
	// extra is time spent between ops, outside the timed ops (trace and
	// counter fetches in a traced window).
	extra time.Duration
}

// window is one measured interval of a workload.
type window struct {
	// dur is the time the lanes ran: the segments, without the
	// calibration pauses between them.
	dur     time.Duration
	npoints int
	lanes   []lane
	host    hostWindow
	// nodeCPU is the CPU time the node's process used during the
	// segments: calibrations, and for an in-process node the benchmark's
	// own sampling between segments, are left out.
	nodeCPU time.Duration
	// rss samples the node's resident set (MB): every rssEvery when the
	// node has its own process, else between segments.
	rss []float64
	// calib holds the calibrations taken before the window and after
	// each of its segments.
	calib []calibration
}

const (
	rssEvery = 50 * time.Millisecond
	// segment is the stretch of a window between two calibrations.
	segment = time.Second
)

// opFunc runs lane l's next op; it returns the op and the time it then
// spent outside the op (0 when untraced). Each lane walks its point list
// cyclically across the warm-up and every window, so any n consecutive
// ops of a lane visit each of its n points once, reached the same way.
type opFunc func(l int) (op, time.Duration)

// runWindow drives the workload's lanes, each a closed loop,
// concurrently for d, in one-second segments. Before the first segment
// and after each one, with every lane idle, it times the calibration.
// pid is the node's process (0: this one); runWindow sums its CPU time
// over the segments, samples its resident set, and samples how the
// host's CPUs were shared.
func (b *base) runWindow(d time.Duration, pid int) (*window, error) {
	w := &window{npoints: b.npoints, lanes: make([]lane, b.nlanes)}
	sampleRSS := func() {
		if mb, err := procRSSMB(pid, "VmRSS:"); err == nil {
			w.rss = append(w.rss, mb)
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if pid == 0 {
			return // sampled between segments, outside the node's CPU time
		}
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			sampleRSS()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	defer func() {
		close(stop)
		<-sampled
	}()
	hs := sampleHost(pid)
	w.calib = append(w.calib, calibrate(pid))
	for left := d; left > 0; left -= segment {
		if pid == 0 {
			sampleRSS()
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		deadline := start.Add(min(left, segment))
		var wg sync.WaitGroup
		for l := range w.lanes {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				ln := &w.lanes[l]
				for time.Now().Before(deadline) {
					o, extra := b.do(l)
					ln.ops = append(ln.ops, o)
					ln.extra += extra
				}
			}(l)
		}
		wg.Wait()
		w.dur += time.Since(start)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		w.nodeCPU += cpu1 - cpu0
		w.calib = append(w.calib, calibrate(pid))
	}
	w.host = hs.finish(pid)
	w.host.Calibrations = w.calib
	for _, c := range w.calib {
		if !c.idle() {
			w.host.CalibDiscarded++
		}
	}
	return w, nil
}

// scale is the window's host scale factor (see hostScale).
func (w *window) scale() float64 { return scaleOf(w.calib) }

// warmUp runs two passes over the point list on every lane, untimed:
// the first learns each point's reference cycles and fills the caches,
// the predecode table and the reconfiguration cache; the second checks
// them. Its ops count as attempted, and as failed if they fail.
func warmUp(nlanes, npoints int, do opFunc) *window {
	w := &window{npoints: npoints, lanes: make([]lane, nlanes)}
	var wg sync.WaitGroup
	for l := range w.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for k := 0; k < 2*npoints; k++ {
				o, _ := do(l)
				w.lanes[l].ops = append(w.lanes[l].ops, o)
			}
		}(l)
	}
	wg.Wait()
	return w
}

// attempted and failed count every op the window issued.
func (w *window) attempted() int {
	n := 0
	for _, ln := range w.lanes {
		n += len(ln.ops)
	}
	return n
}

func (w *window) failed() int {
	n := 0
	for _, ln := range w.lanes {
		for _, o := range ln.ops {
			if o.err != nil {
				n++
			}
		}
	}
	return n
}

// firstErr returns the first failure, for the report.
func (w *window) firstErr() error {
	for _, ln := range w.lanes {
		for _, o := range ln.ops {
			if o.err != nil {
				return o.err
			}
		}
	}
	return nil
}

// good returns the window's successful ops.
func (w *window) good() []op {
	var out []op
	for _, ln := range w.lanes {
		for _, o := range ln.ops {
			if o.err == nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// opsPerSec is completed, checked ops per second, summed over lanes.
func (w *window) opsPerSec() float64 {
	return float64(len(w.good())) / w.dur.Seconds()
}

// busyOpsPerSec is opsPerSec with each lane's time outside its ops
// (trace fetches) taken out of its window.
func (w *window) busyOpsPerSec() float64 {
	var r float64
	for _, ln := range w.lanes {
		n := 0
		for _, o := range ln.ops {
			if o.err == nil {
				n++
			}
		}
		if busy := w.dur - ln.extra; busy > 0 {
			r += float64(n) / busy.Seconds()
		}
	}
	return r
}

// passTotals sums the ops of every whole pass over the point list: a
// lane's pass counts only when all of its ops passed their checks. Sums over whole passes repeat exactly
// whatever the seed or the window length.
type passTotals struct {
	passes, ops   int
	cycles, insts uint64
	exact         exactCounts
	exactOps      int
}

func (w *window) wholePasses() passTotals {
	var t passTotals
	for _, ln := range w.lanes {
		for p := 0; (p+1)*w.npoints <= len(ln.ops); p++ {
			pass := ln.ops[p*w.npoints : (p+1)*w.npoints]
			whole := true
			for _, o := range pass {
				whole = whole && o.err == nil
			}
			if !whole {
				continue
			}
			t.passes++
			for _, o := range pass {
				t.ops++
				t.cycles += o.cycles
				t.insts += o.insts
				if o.exact != nil {
					t.exact.add(o.exact)
					t.exactOps++
				}
			}
		}
	}
	return t
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies returns the sorted latencies (ms) of the window's good ops.
func (w *window) latencies() []float64 {
	var xs []float64
	for _, o := range w.good() {
		xs = append(xs, float64(o.lat)/float64(time.Millisecond))
	}
	sort.Float64s(xs)
	return xs
}

// endToEnd computes the eight end-to-end metrics of an untraced window.
// Host times are scaled to the reference host by the window's scale,
// set-up times by each set-up's own. rss_mb is the median of the node's resident set
// sampled through the window: its peak (VmHWM, in the report file)
// depends on when the collector ran relative to the full swaps' 10 MB
// copies, and spreads three times as much from run to run.
func endToEnd(w *window, setups []setupTime) (raw, scaled map[string]metric, err error) {
	lat := w.latencies()
	good := len(lat)
	if good == 0 {
		return nil, nil, fmt.Errorf("no op succeeded in the %v window", w.dur)
	}
	var insts uint64
	for _, o := range w.good() {
		insts += o.insts
	}
	pt := w.wholePasses()
	if pt.ops == 0 {
		// Only when ops failed (or the window was shorter than a pass):
		// fall back to the good ops, which need not cover every point.
		for _, o := range w.good() {
			pt.ops++
			pt.cycles += o.cycles
		}
	}
	var rawSetup, scaledSetup []float64
	for _, st := range setups {
		rawSetup = append(rawSetup, st.Seconds)
		scaledSetup = append(scaledSetup, st.Seconds/st.Scale)
	}
	raw = map[string]metric{
		"ops_per_s":          {w.opsPerSec(), "ops/s"},
		"op_p50_ms":          {quantile(lat, 0.5), "ms"},
		"op_p90_ms":          {quantile(lat, 0.9), "ms"},
		"sim_mips":           {float64(insts) / w.dur.Seconds() / 1e6, "Minst/s"},
		"sim_cycles_per_op":  {float64(pt.cycles) / float64(pt.ops), "cycles"},
		"node_cpu_ms_per_op": {ms(w.nodeCPU) / float64(good), "ms"},
		"rss_mb":             {median(w.rss), "MB"},
		"setup_s":            {median(rawSetup), "s"},
	}
	k := w.scale()
	scaled = map[string]metric{}
	for name, m := range raw {
		switch name {
		case "ops_per_s", "sim_mips":
			m.Value *= k
		case "op_p50_ms", "op_p90_ms", "node_cpu_ms_per_op":
			m.Value /= k
		case "setup_s":
			m.Value = median(scaledSetup)
		}
		scaled[name] = m
	}
	return raw, scaled, nil
}

// setupTime is one set-up's duration and the host scale of the
// calibrations around it.
type setupTime struct {
	Seconds float64 `json:"seconds"`
	Scale   float64 `json:"host_scale"`
}

// report is everything one invocation measured; the result line is a
// subset, the rest is written next to the node binary for diagnosis.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Seconds    float64           `json:"seconds"`
	Samples    int               `json:"latency_samples"`
	Passes     int               `json:"whole_passes"`
	SetupS     []setupTime       `json:"setups"`
	PeakRSSMB  float64           `json:"node_peak_rss_mb,omitempty"`
	HostScale  []float64         `json:"host_scale"`
	RawMetrics map[string]metric `json:"raw_metrics,omitempty"`
	Windows    []hostWindow      `json:"windows"`
	Host       hostInfo          `json:"host"`
	Layers     []layerRow        `json:"layers,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
	TraceSpans int               `json:"trace_spans,omitempty"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`

	attempted int
	failed    int
}

// countOps adds a window's ops to the attempted and failed counts.
func (r *report) countOps(w *window) {
	r.attempted += w.attempted()
	r.failed += w.failed()
	if err := w.firstErr(); err != nil && r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// addWindow folds a measured window into the report.
func (r *report) addWindow(w *window) {
	r.countOps(w)
	r.Windows = append(r.Windows, w.host)
	r.HostScale = append(r.HostScale, w.scale())
	r.Samples += len(w.good())
	r.Passes += w.wholePasses().passes
}

// write stores the full report as JSON and summarises it on stderr.
func (r *report) write(o options) error {
	r.Workload, r.Seed, r.Traced, r.Seconds = o.workload, o.seed, o.trace, o.seconds
	dir := filepath.Join(o.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: %d attempted, %d failed, %d latency samples, %d whole passes\n",
		o.workload, o.seed, btoi(o.trace), r.attempted, r.failed, r.Samples, r.Passes)
	fmt.Fprintf(os.Stderr, "perfbench: host: %d CPUs (%s), %s, GOMAXPROCS bench %d node %d\n",
		r.Host.NumCPU, r.Host.CPUModel, r.Host.GoVersion, r.Host.GOMAXPROCS, r.Host.NodeGOMAXPROCS)
	for i, hw := range r.Windows {
		fmt.Fprintf(os.Stderr, "perfbench: window %d: %.1f s, host scale %.3f (%d calibrations discarded: node busy), steal %.1f%%, other processes %.1f%% of host CPU\n",
			i, hw.Seconds, r.HostScale[i], hw.CalibDiscarded, 100*hw.StealShare, 100*hw.OtherShare)
	}
	if r.FirstError != "" {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %s\n", r.FirstError)
	}
	for _, row := range r.Layers {
		fmt.Fprintf(os.Stderr, "perfbench: %-32s %14.6g %-10s moves %-28s on %s\n", row.Name, row.Value, row.Unit, row.Moves, row.On)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans (Chrome trace JSON, validated) in %s\n", r.TraceSpans, r.TraceFile)
	}
	fmt.Fprintf(os.Stderr, "perfbench: report %s\n", filepath.Join(dir, name))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
