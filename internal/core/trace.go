package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"liquidarch/internal/leon"
	"liquidarch/internal/trace"
	"liquidarch/internal/tracing"
)

// tracedControl is the LEON control interface the FPX platform sees:
// the System's board actor, which records an instrumented trace around
// every networked execution — the paper's "streaming of instrumented
// traces to the Trace Analyzer" made pullable via CmdTraceReport. The
// trace summary is attached and detached by the run hooks ON the actor
// goroutine, so it observes exactly the run it wraps, and the After
// hook completes before the Done state is visible to pollers — a
// CmdTraceReport sent right after a successful result collect always
// sees this run's trace.
type tracedControl struct {
	*leon.AsyncController
	sys *System
}

// SetRunDoneHook installs the board's one wake: the actor fires fn
// after every run completion, and the ticket watcher fires it when a
// pending reconfiguration's synthesis finishes (see watchTicket).
func (t tracedControl) SetRunDoneHook(fn func()) {
	t.sys.mu.Lock()
	t.sys.wake = fn
	t.sys.mu.Unlock()
	t.AsyncController.SetRunDoneHook(fn)
}

// StartCtx is the handoff the FPX platform makes, with the run hooks
// of netRunOpts.
func (t tracedControl) StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error {
	return t.StartOpts(entry, maxCycles, t.sys.netRunOpts(tc))
}

// netRunOpts builds the per-run hooks for a networked execution:
// attach a trace summary at the handoff, detach and publish it (and
// the run telemetry) at completion. tc, when enabled, wraps the whole
// asynchronous run in a "run" span — opened here at the handoff,
// closed by the After hook on the actor goroutine when the run
// completes — whose child context feeds the actor's per-slice spans.
func (s *System) netRunOpts(tc tracing.Ctx) leon.RunOptions {
	var sum *trace.Summary
	runSpan := tc.Start("run")
	return leon.RunOptions{
		Trace: runSpan.Ctx(),
		Before: func(c *leon.Controller) {
			sum = trace.NewSummary()
			sum.Attach(c.SoC().CPU)
		},
		After: func(c *leon.Controller, res leon.RunResult, wall time.Duration, err error) {
			sum.Detach()
			s.traceMu.Lock()
			s.lastTrace = sum
			s.traceMu.Unlock()
			s.observeRun(res, wall, err)
			if runSpan.On() {
				status := "ok"
				switch {
				case res.Faulted:
					status = "fault"
				case err != nil:
					status = "error"
				}
				runSpan.EndAttrs(
					tracing.A("cycles", strconv.FormatUint(res.Cycles, 10)),
					tracing.A("status", status),
				)
			}
		},
	}
}

// TraceReport is the JSON summary served by CmdTraceReport.
type TraceReport struct {
	Instructions    uint64          `json:"instructions"`
	MemEvents       int             `json:"mem_events"`
	MemReads        int             `json:"mem_reads"`
	MemWrites       int             `json:"mem_writes"`
	Dropped         uint64          `json:"dropped"`
	WorkingSetLines int             `json:"working_set_lines"`
	WorkingSetBytes int             `json:"working_set_bytes"`
	HotSpots        []trace.HotSpot `json:"hot_spots"`
}

// traceReportJSON summarizes the last networked run's trace.
func (s *System) traceReportJSON() ([]byte, error) {
	s.traceMu.Lock()
	sum := s.lastTrace
	s.traceMu.Unlock()
	if sum == nil {
		return nil, fmt.Errorf("core: no traced run yet")
	}
	lines, bytes := sum.WorkingSet()
	return json.Marshal(TraceReport{
		Instructions:    sum.Instructions(),
		MemEvents:       sum.Events(),
		MemReads:        sum.Reads(),
		MemWrites:       sum.Writes(),
		Dropped:         sum.Dropped(),
		WorkingSetLines: lines,
		WorkingSetBytes: bytes,
		HotSpots:        sum.HotSpots(10),
	})
}
