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
// it delegates to the System's current board actor (so reconfiguration
// is transparent) and records an instrumented trace around every
// networked execution — the paper's "streaming of instrumented traces
// to the Trace Analyzer" made pullable via CmdTraceReport. The trace
// recorder is attached and detached by the run hooks ON the actor
// goroutine, so it observes exactly the run it wraps, and the After
// hook completes before the Done state is visible to pollers — a
// CmdTraceReport sent right after a successful result collect always
// sees this run's trace.
type tracedControl struct {
	sys *System
}

func (t tracedControl) State() leon.State          { return t.sys.async().State() }
func (t tracedControl) Cycles() uint64             { return t.sys.async().Cycles() }
func (t tracedControl) LastResult() leon.RunResult { return t.sys.async().LastResult() }

// SetRunDoneHook makes tracedControl an fpx.RunDoneNotifier, so a
// server mounted on this platform can park CmdWaitResult exchanges.
// The System re-installs the hook on every fresh board actor a full
// reconfiguration spawns.
func (t tracedControl) SetRunDoneHook(fn func()) { t.sys.setRunDoneHook(fn) }

func (t tracedControl) LoadProgram(addr uint32, image []byte) error {
	return t.sys.async().LoadProgram(addr, image)
}

func (t tracedControl) ReadMemory(addr uint32, n int) ([]byte, error) {
	return t.sys.ReadMemory(addr, n)
}

func (t tracedControl) WriteMemory(addr uint32, p []byte) error {
	return t.sys.async().WriteMemory(addr, p)
}

// netRunOpts builds the per-run hooks for a networked execution:
// attach a bounded recorder at the handoff, detach and publish it (and
// the run telemetry) at completion. tc, when enabled, wraps the whole
// asynchronous run in a "run" span — opened here at the handoff,
// closed by the After hook on the actor goroutine when the run
// completes — whose child context feeds the actor's per-slice spans.
func (s *System) netRunOpts(tc tracing.Ctx) leon.RunOptions {
	var rec *trace.Recorder
	runSpan := tc.Start("run")
	return leon.RunOptions{
		Trace: runSpan.Ctx(),
		Before: func(c *leon.Controller) {
			rec = trace.NewRecorder()
			rec.MaxEvents = 1 << 20
			rec.Attach(c.SoC().CPU)
		},
		After: func(c *leon.Controller, res leon.RunResult, wall time.Duration, err error) {
			rec.Detach()
			s.traceMu.Lock()
			s.lastTrace = rec
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

func (t tracedControl) Start(entry uint32, maxCycles uint64) error {
	s := t.sys
	return s.async().StartOpts(entry, maxCycles, s.netRunOpts(tracing.Ctx{}))
}

// StartCtx is the trace-aware handoff the FPX platform uses when the
// exchange carries a trace context (fpx.CtxStarter).
func (t tracedControl) StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error {
	s := t.sys
	return s.async().StartOpts(entry, maxCycles, s.netRunOpts(tc))
}

func (t tracedControl) CollectResult() (leon.RunResult, error) {
	return t.sys.async().CollectResult()
}

// LastTrace returns the recorder from the most recent networked run
// (nil before any).
func (s *System) LastTrace() *trace.Recorder {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.lastTrace
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
	rec := s.LastTrace()
	if rec == nil {
		return nil, fmt.Errorf("core: no traced run yet")
	}
	lines, bytes := rec.WorkingSet(32)
	rep := TraceReport{
		Instructions:    rec.Instructions(),
		MemEvents:       len(rec.MemEvents()),
		Dropped:         rec.Dropped(),
		WorkingSetLines: lines,
		WorkingSetBytes: bytes,
		HotSpots:        rec.HotSpots(10),
	}
	for _, e := range rec.MemEvents() {
		if e.Write {
			rep.MemWrites++
		} else {
			rep.MemReads++
		}
	}
	return json.Marshal(rep)
}
