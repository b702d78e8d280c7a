// Package sim provides the deterministic simulation substrate for the
// control plane: an injectable clock (real or virtual), an in-memory
// packet network with seedable per-link faults, and a UDP relay that
// applies the same faults between real sockets. Production code receives
// time through sim.Clock so that tests can run whole chaos scenarios on
// a virtual timeline, advancing it only when every goroutine is idle
// (quiescence-stepped delivery).
package sim

import "time"

// Clock is the time source injected into the control plane. The zero
// policy everywhere is "nil means Real": packages default to the real
// clock so production wiring does not change.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Until(t time.Time) time.Duration
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
	NewTimer(d time.Duration) *Timer
	AfterFunc(d time.Duration, fn func()) *Timer
}

// Timer mirrors time.Timer for both clock implementations. After a
// successful Stop, C never receives.
type Timer struct {
	C     <-chan time.Time
	stop  func() bool
	reset func(d time.Duration) bool
}

// Stop prevents the timer from firing. It reports whether it stopped
// the timer before it fired.
func (t *Timer) Stop() bool { return t.stop() }

// Reset re-arms the timer to fire after d. It reports whether the timer
// had been active.
func (t *Timer) Reset(d time.Duration) bool { return t.reset(d) }

// Real is the wall-clock implementation backed by package time.
var Real Clock = realClock{}

// Or returns c if non-nil, else Real. It is the canonical default at
// every injection point.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop, reset: t.Reset}
}

func (realClock) AfterFunc(d time.Duration, fn func()) *Timer {
	t := time.AfterFunc(d, fn)
	return &Timer{C: t.C, stop: t.Stop, reset: t.Reset}
}
