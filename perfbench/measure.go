package main

import "time"

// workload is a set-up workload, as runWorkload and measure drive it.
type workload interface {
	common() *base
	// nodePID is the process hosting the node: 0 when it is this one.
	nodePID() int
	// counters reads the public counters at the start of an interval and
	// returns the function that reads them at its end and returns the
	// deltas.
	counters() (func() (counterDeltas, error), error)
	// startTrace attaches t to the following ops and reads the baselines
	// their exact counts are deltas from.
	startTrace(t *tracer) error
	// inproc returns leon.host_ns_per_inst_inproc; untraced is the traced
	// run's untraced half.
	inproc(untraced *window) (float64, error)
	close()
}

// base is what every set-up workload carries.
type base struct {
	o       options
	refs    *refTable
	builds  []time.Duration
	tr      *tracer
	warm    *window
	nlanes  int
	npoints int
	do      opFunc
	// runKey names the span that times a run: the node's "run" span, or
	// the benchmark's span around System.Run in process.
	runKey string
}

func (b *base) common() *base { return b }

// runWorkload sets a workload up o.setups times, each from node launch
// and between two calibrations, and measures the last set-up.
func runWorkload(o options, setup func(options) (workload, error)) (*report, error) {
	rep := &report{Host: hostInfoNow()}
	var w workload
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.close()
		}
		// No node runs during the first calibration: the previous set-up's
		// has stopped, and this one's is not launched yet.
		before := calibrate(0)
		t0 := time.Now()
		var err error
		w, err = setup(o)
		secs := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		after := calibrate(w.nodePID())
		rep.SetupS = append(rep.SetupS, setupTime{secs, scaleOf([]calibration{before, after})})
		rep.countOps(w.common().warm)
	}
	defer w.close()
	return rep, measure(rep, w)
}

// measure runs the timed part of a workload: the end-to-end window, or
// for a traced run an untraced half (counters, overhead base) and a
// traced half (spans, exact counts).
func measure(rep *report, w workload) error {
	b := w.common()
	d := time.Duration(b.o.seconds * float64(time.Second))
	pid := w.nodePID()
	if !b.o.trace {
		win, err := b.runWindow(d, pid)
		if err != nil {
			return err
		}
		if rep.PeakRSSMB, err = peakRSSMB(pid); err != nil {
			return err
		}
		rep.addWindow(win)
		rep.RawMetrics, rep.Metrics, err = endToEnd(win, rep.SetupS)
		return err
	}
	end, err := w.counters()
	if err != nil {
		return err
	}
	uw, err := b.runWindow(d/2, pid)
	if err != nil {
		return err
	}
	deltas, err := end()
	if err != nil {
		return err
	}
	b.tr = newTracer()
	if err := w.startTrace(b.tr); err != nil {
		return err
	}
	tw, err := b.runWindow(d/2, pid)
	if err != nil {
		return err
	}
	rep.addWindow(uw)
	rep.addWindow(tw)
	ns, err := w.inproc(uw)
	if err != nil {
		return err
	}
	rep.Metrics, rep.Layers = layers(layerInputs{
		untraced: uw, traced: tw, agg: b.tr.agg, counters: deltas,
		runKey: b.runKey, builds: b.builds, inproc: ns,
	})
	rep.TraceFile, rep.TraceSpans, err = b.tr.export(b.o)
	return err
}
