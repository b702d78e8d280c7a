package fpx

import (
	"fmt"
	"sync"
	"time"

	"liquidarch/internal/leon"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// Emulator stands in for the FPX hardware, playing the role of the
// paper's "Java Emulator of the H/W (for debugging)" (Fig. 4): it
// accepts loads, pretends to execute programs in a fixed number of
// cycles, and serves memory from a plain byte array. Control-software
// tests run against it without building a processor. It implements
// the asynchronous LEONControl shape: a start arms a pretend run that
// stays Running for AsyncDelay of wall time before any observation
// (State, Cycles, CollectResult) finalizes it. All methods are
// safe for concurrent use.
type Emulator struct {
	mu         sync.Mutex
	mem        map[uint32]byte
	state      leon.State
	last       leon.RunResult
	loaded     uint32
	loadedSize int

	// pending is the armed run; it finalizes lazily when observed
	// after its deadline (or eagerly by CollectResult), and eagerly
	// when the completion timer fires so run-done hooks work.
	pending  *leon.RunResult
	deadline time.Time
	runDone  func()

	// CyclesPerByte sets the pretend execution cost (default 10).
	CyclesPerByte uint64
	// AsyncDelay is how long a started run stays observably Running
	// before it completes (default 0: the run finishes by the first
	// status check — the emulator is infinitely fast hardware).
	AsyncDelay time.Duration
	// Clock paces AsyncDelay (nil = real time). Simulated nodes set
	// the virtual clock so pretend runs complete on the virtual
	// timeline.
	Clock sim.Clock
}

// NewEmulator returns a booted emulator.
func NewEmulator() *Emulator {
	return &Emulator{mem: make(map[uint32]byte), state: leon.StateIdle, CyclesPerByte: 10}
}

// clock returns the configured pacing clock. Callers hold e.mu.
func (e *Emulator) clock() sim.Clock { return sim.Or(e.Clock) }

// settle finalizes the pending run if its deadline has passed,
// reporting whether a run just completed. Callers hold e.mu; the
// run-done hook (non-blocking by contract) fires under the lock.
func (e *Emulator) settle(force bool) bool {
	if e.pending == nil {
		return false
	}
	if !force && e.clock().Now().Before(e.deadline) {
		return false
	}
	e.last = *e.pending
	if e.last.Faulted {
		e.state = leon.StateFault
	} else {
		e.state = leon.StateDone
	}
	e.pending = nil
	if e.runDone != nil {
		e.runDone()
	}
	return true
}

// SetRunDoneHook registers fn to fire every time a pretend run
// completes (nil clears it). fn must not block. With the hook armed
// and AsyncDelay > 0, completion is driven by a clock timer, so
// server-held waits wake without an observation forcing settlement.
func (e *Emulator) SetRunDoneHook(fn func()) {
	e.mu.Lock()
	e.runDone = fn
	e.mu.Unlock()
}

// State implements LEONControl.
func (e *Emulator) State() leon.State {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settle(false)
	return e.state
}

// Cycles implements LEONControl: the pretend cycle counter of the
// in-flight (or last) run.
func (e *Emulator) Cycles() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settle(false)
	if e.pending != nil {
		return e.pending.Cycles
	}
	return e.last.Cycles
}

// LastResult implements LEONControl.
func (e *Emulator) LastResult() leon.RunResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settle(false)
	return e.last
}

// SRAMSize implements LEONControl: the emulator stands in for a board
// with the default configuration's SRAM.
func (e *Emulator) SRAMSize() int { return leon.DefaultConfig().SRAMSize }

// LoadProgram implements LEONControl, within the bounds a board's
// controller applies (leon.CheckLoad).
func (e *Emulator) LoadProgram(addr uint32, image []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := leon.CheckLoad(addr, uint64(len(image)), e.SRAMSize()); err != nil {
		return fmt.Errorf("fpx: emulator: %w", err)
	}
	for i, b := range image {
		e.mem[addr+uint32(i)] = b
	}
	e.loaded = addr
	e.loadedSize = len(image)
	return nil
}

// Start is the §3.1 handoff ack. The run charges
// a deterministic cycle count proportional to the image size and
// completes AsyncDelay later.
func (e *Emulator) Start(entry uint32, maxCycles uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.loaded == 0 {
		return fmt.Errorf("fpx: emulator: nothing loaded")
	}
	if entry < e.loaded || entry >= e.loaded+uint32(e.loadedSize) {
		return fmt.Errorf("fpx: emulator: entry %#x outside loaded image", entry)
	}
	res := leon.RunResult{
		Cycles:       uint64(e.loadedSize) * e.CyclesPerByte,
		Instructions: uint64(e.loadedSize / 4),
	}
	if maxCycles != 0 && res.Cycles > maxCycles {
		res.Faulted = true
		res.Cycles = maxCycles
	}
	e.state = leon.StateRunning
	e.pending = &res
	e.deadline = e.clock().Now().Add(e.AsyncDelay)
	if e.AsyncDelay > 0 {
		// Complete on the timeline, not just on observation: a stale
		// timer from an earlier run is harmless (settle(false) no-ops
		// while the newer run's deadline is still ahead).
		e.clock().AfterFunc(e.AsyncDelay, func() {
			e.mu.Lock()
			e.settle(false)
			e.mu.Unlock()
		})
	}
	return nil
}

// StartCtx implements LEONControl: Start, since a pretend run records
// no spans.
func (e *Emulator) StartCtx(_ tracing.Ctx, entry uint32, maxCycles uint64) error {
	return e.Start(entry, maxCycles)
}

// CollectResult implements LEONControl: it blocks (conceptually)
// until the run completes — the emulator just completes it.
func (e *Emulator) CollectResult() (leon.RunResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.settle(true)
	return e.last, nil
}

// Execute is the blocking convenience, Start + CollectResult (budget
// overruns report a faulted result with a nil error).
func (e *Emulator) Execute(entry uint32, maxCycles uint64) (leon.RunResult, error) {
	if err := e.Start(entry, maxCycles); err != nil {
		return leon.RunResult{}, err
	}
	return e.CollectResult()
}

// ReadMemory implements LEONControl.
func (e *Emulator) ReadMemory(addr uint32, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("fpx: emulator: negative length")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]byte, n)
	for i := range out {
		out[i] = e.mem[addr+uint32(i)]
	}
	return out, nil
}

// WriteMemory implements LEONControl.
func (e *Emulator) WriteMemory(addr uint32, p []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, b := range p {
		e.mem[addr+uint32(i)] = b
	}
	return nil
}
