package leon

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// ErrClosed reports an operation against a shut-down AsyncController.
var ErrClosed = errors.New("leon: async controller closed")

// sliceSteps is how many instructions the actor executes between
// request-channel polls. A slice's wall time bounds the control plane's
// scheduling latency on a single-CPU host (every goroutine hop in a
// status round trip waits for the actor's per-slice yield), so it is
// sized to a few hundred microseconds at the simulator's steady-state
// step rate — well inside the 10 ms latency target, while the
// per-slice channel poll and yield stay invisible next to the stepping
// itself. Superblock dispatch dropped the per-step cost well below the
// old interpreter's, so the slice grew with it: a StepRun slice is now
// a run of event-horizon batches (SoC.StepN) whose size derives from
// the peripheral deadline, and 2^14 steps of block dispatch complete
// in a few hundred microseconds. That holds for networked runs too:
// the trace summary attached to each of them counts per-PC
// executions inside the block dispatcher (cpu.CPU.StartProfile), so a
// recorded run stays on the block path.
const sliceSteps = 1 << 14

// RunOptions decorate one run. Both hooks are invoked on the actor
// goroutine, so they may touch the SoC without synchronization: Before
// immediately after the §3.1 handoff, ahead of the first step slice
// (attach a trace recorder here — the handoff's ROM poll wait is not
// part of the run, and keeping the recorder off the CPU while it waits
// lets the poll loop fast-forward, which recording turns off), After
// exactly once when the run completes, exhausts its budget, hits error
// mode — or when the handoff itself fails (Before fires first even
// then, so a recorder attached in Before is always detached).
type RunOptions struct {
	Before func(c *Controller)
	After  func(c *Controller, res RunResult, wall time.Duration, err error)
	// Trace, when enabled, attributes the run's step slices to an
	// exchange trace: the actor records one "slice" span per StepRun
	// batch (the per-trace span bound caps a long run's volume). The
	// zero Ctx disables slice recording at no cost.
	Trace tracing.Ctx
}

// runHandle is one run's completion mailbox.
type runHandle struct {
	done chan struct{} // closed after res/err are final and After has run
	res  RunResult
	err  error
}

// asyncReq is a closure executed by the actor goroutine.
type asyncReq struct {
	fn   func(c *Controller)
	done chan struct{}
}

// AsyncController wraps a Controller in a per-board actor goroutine,
// turning the paper's §3.1 handoff into its true asynchronous shape:
// Start writes the entry address and returns immediately, the run is
// driven in bounded step slices by the actor, and the client observes
// completion via State/Cycles polling before collecting the RunResult
// — while loads, memory reads and status queries interleave between
// slices. The underlying Controller and SoC are goroutine-confined to
// the actor, so every operation is race-free by construction; State
// and Cycles additionally read lock-free atomics published at each
// slice boundary, so status never waits on execution.
type AsyncController struct {
	reqs chan asyncReq
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	state  atomic.Uint32 // State, published at slice boundaries
	cycles atomic.Uint64 // run-relative cycle counter, ditto

	mu      sync.Mutex
	run     *runHandle // current or most recent run (nil before the first)
	lastRes RunResult  // mirror of ctrl.LastResult(), refreshed at publish points
	runDone func()     // completion hook, invoked on the actor goroutine
	clk     sim.Clock  // wall-duration source (nil = sim.Real)

	// Actor-local run context (touched only on the actor goroutine).
	wallStart time.Time
	opts      RunOptions
}

// NewAsyncController wraps ctrl in a fresh actor. The caller must not
// touch ctrl (or its SoC) directly afterwards except through Do.
func NewAsyncController(ctrl *Controller) *AsyncController {
	// The actor is compute-bound while a run is in flight. On a host
	// where GOMAXPROCS is 1 that pins the only scheduler thread: socket
	// readiness is then only discovered by the runtime's ~10 ms sysmon
	// poll, which blows the control plane's latency target on every
	// network hop. Keep at least one extra thread so the netpoller has
	// somewhere to run. (Purely a scheduling concern — simulated cycle
	// counts are unaffected.)
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	a := &AsyncController{
		reqs: make(chan asyncReq),
		quit: make(chan struct{}),
	}
	a.publish(ctrl)
	a.wg.Add(1)
	go a.loop(ctrl)
	return a
}

// loop is the actor: it serves requests while idle and drives an
// in-flight run in slices, draining queued requests between slices so
// the control plane stays responsive during execution. Every
// controller access happens strictly before the acknowledgement the
// caller can observe (req.done / the run handle's done channel), so a
// caller that owns the controller while the actor is idle — tests and
// benchmarks poking the bare Controller directly — sees no concurrent
// access from this goroutine.
func (a *AsyncController) loop(ctrl *Controller) {
	defer a.wg.Done()
	for {
		select {
		case <-a.quit:
			return
		case req := <-a.reqs:
			if !a.serve(ctrl, req) {
				continue
			}
		}
		// A request put the controller in StateRunning: drive the run.
		for {
			ss := a.opts.Trace.Start("slice")
			done, res, err := ctrl.StepRun(sliceSteps)
			a.publish(ctrl)
			if ss.On() {
				ss.EndAttrs(tracing.A("cycles", strconv.FormatUint(ctrl.Cycles(), 10)))
			}
			if done {
				a.finish(ctrl, res, err)
				break
			}
			// Serve whatever queued up during the slice, without
			// blocking the run when the queue is empty.
		drain:
			for {
				select {
				case <-a.quit:
					return
				case req := <-a.reqs:
					a.serve(ctrl, req)
				default:
					break drain
				}
			}
			// Yield explicitly: the stepping loop is compute-bound, and
			// on a single-CPU host a control request (a status poll
			// hopping client → server → worker → here) would otherwise
			// wait for the ~10 ms async-preemption tick at every hop.
			// One Gosched per slice caps that wait at a slice's wall
			// time, keeping the control plane inside its latency target.
			runtime.Gosched()
		}
	}
}

// serve runs one request on the actor goroutine, refreshes the
// lock-free mirror, acknowledges the caller, and reports whether the
// controller is now running (i.e. the request performed a handoff).
// The mirror refresh — the actor's last controller read — happens
// before the acknowledgement.
func (a *AsyncController) serve(ctrl *Controller, req asyncReq) bool {
	req.fn(ctrl)
	running := ctrl.State() == StateRunning
	a.publish(ctrl)
	close(req.done)
	return running
}

// publish refreshes the poll-path mirror: lock-free state/cycles plus
// the mutex-guarded last-result copy. Everything a status query needs
// is served from this mirror, so CmdStatus never waits on the actor.
func (a *AsyncController) publish(ctrl *Controller) {
	a.state.Store(uint32(ctrl.State()))
	a.cycles.Store(ctrl.Cycles())
	res := ctrl.LastResult()
	a.mu.Lock()
	a.lastRes = res
	a.mu.Unlock()
}

// finish completes the current run on the actor goroutine: the After
// hook runs first (so by the time the Done state is observable, all
// observers — trace detach, metrics — have fired), then the result is
// published and the handle's done channel closed.
func (a *AsyncController) finish(ctrl *Controller, res RunResult, err error) {
	if a.opts.After != nil {
		a.opts.After(ctrl, res, a.clock().Since(a.wallStart), err)
	}
	a.opts = RunOptions{}
	a.mu.Lock()
	h := a.run
	a.mu.Unlock()
	h.res, h.err = res, err
	a.publish(ctrl)
	close(h.done)
	// The completion hook fires last: by the time a woken waiter looks,
	// State reads Done/Fault and CollectResult returns without blocking.
	a.mu.Lock()
	done := a.runDone
	a.mu.Unlock()
	if done != nil {
		done()
	}
}

// SetRunDoneHook registers fn to be invoked — on the actor goroutine,
// after the result is published and the run handle closed — every time
// a run completes. The reconfiguration server uses it to wake parked
// CmdWaitResult exchanges the instant the board finishes instead of
// making clients poll. fn must not block (the server's hook is a
// non-blocking channel send); nil clears the hook.
func (a *AsyncController) SetRunDoneHook(fn func()) {
	a.mu.Lock()
	a.runDone = fn
	a.mu.Unlock()
}

// SetClock injects the time source used for run wall-duration
// measurement (nil restores the real clock). Simulated nodes set the
// virtual clock here so run timing is deterministic.
func (a *AsyncController) SetClock(c sim.Clock) {
	a.mu.Lock()
	a.clk = c
	a.mu.Unlock()
}

func (a *AsyncController) clock() sim.Clock {
	a.mu.Lock()
	defer a.mu.Unlock()
	return sim.Or(a.clk)
}

// Do runs fn on the actor goroutine, serialized against the in-flight
// run (fn executes between step slices, never concurrently with them).
// It is the escape hatch for operations that must touch the SoC — the
// cache-plugin swap of a partial reconfiguration, direct memory pokes
// in tests. Returns ErrClosed after Close.
func (a *AsyncController) Do(fn func(c *Controller)) error {
	req := asyncReq{fn: fn, done: make(chan struct{})}
	select {
	case a.reqs <- req:
		<-req.done
		return nil
	case <-a.quit:
		return ErrClosed
	}
}

// State returns the controller state from the lock-free mirror — it
// never waits on execution.
func (a *AsyncController) State() State { return State(a.state.Load()) }

// Cycles returns the hardware cycle counter from the lock-free mirror:
// live (within one slice) while running, final afterwards.
func (a *AsyncController) Cycles() uint64 { return a.cycles.Load() }

// LastResult returns the most recent completed run's result, served
// from the publish mirror — like State and Cycles it never waits on
// execution, so the status path stays prompt mid-run.
func (a *AsyncController) LastResult() RunResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastRes
}

// LoadProgram writes a program image through the user port. While a
// run is in flight the underlying controller rejects it ("cannot load
// in state running") — the request itself is served between slices.
func (a *AsyncController) LoadProgram(addr uint32, image []byte) error {
	err := ErrClosed
	if derr := a.Do(func(c *Controller) { err = c.LoadProgram(addr, image) }); derr != nil {
		return derr
	}
	return err
}

// ReadMemory reads through the user-side ports. Mid-run reads are
// legal — the FPX SDRAM controller arbitrates the network-side port
// against the processor (§2.4) — and are serialized at slice
// boundaries here.
func (a *AsyncController) ReadMemory(addr uint32, n int) ([]byte, error) {
	var (
		out []byte
		err error
	)
	if derr := a.Do(func(c *Controller) { out, err = c.ReadMemory(addr, n) }); derr != nil {
		return nil, derr
	}
	return out, err
}

// WriteMemory writes through the user-side SRAM port (rejected while
// running, like LoadProgram).
func (a *AsyncController) WriteMemory(addr uint32, p []byte) error {
	err := ErrClosed
	if derr := a.Do(func(c *Controller) { err = c.WriteMemory(addr, p) }); derr != nil {
		return derr
	}
	return err
}

// IRQCount returns the mailbox interrupt counter.
func (a *AsyncController) IRQCount() uint32 {
	var v uint32
	_ = a.Do(func(c *Controller) { v = c.IRQCount() })
	return v
}

// Start begins executing the program at entry and returns as soon as
// the handoff completes — the paper's "Start LEON" ack. The run itself
// is driven by the actor; poll State/Cycles and fetch the result with
// CollectResult. maxCycles bounds the run (0 = large default).
func (a *AsyncController) Start(entry uint32, maxCycles uint64) error {
	return a.StartOpts(entry, maxCycles, RunOptions{})
}

// StartOpts is Start with per-run hooks.
func (a *AsyncController) StartOpts(entry uint32, maxCycles uint64, opts RunOptions) error {
	err := ErrClosed
	derr := a.Do(func(c *Controller) {
		start := a.clock().Now()
		err = c.Start(entry, maxCycles)
		a.publish(c)
		if opts.Before != nil {
			opts.Before(c)
		}
		if err != nil {
			// Handoff failed: no run is in flight. Fire After anyway so
			// anything attached in Before is torn down and the failure
			// is observed, mirroring the blocking path.
			if opts.After != nil {
				res := RunResult{}
				if st := c.State(); st == StateFault || st == StateReset {
					res = c.LastResult()
				}
				opts.After(c, res, a.clock().Since(start), err)
			}
			return
		}
		a.wallStart = start
		a.opts = opts
		h := &runHandle{done: make(chan struct{})}
		a.mu.Lock()
		a.run = h
		a.mu.Unlock()
	})
	if derr != nil {
		return derr
	}
	return err
}

// StartCtx is the trace-aware handoff (fpx.CtxStarter): the actor's
// per-slice spans land under tc. Platforms built on a bare actor (no
// core.System wrapper) get run-slice visibility through this.
func (a *AsyncController) StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error {
	return a.StartOpts(entry, maxCycles, RunOptions{Trace: tc})
}

// CollectResult blocks until the in-flight run completes and returns
// its result; with no run in flight it returns the last result. Calling
// it repeatedly is idempotent — the §2.6 UDP client may retransmit.
func (a *AsyncController) CollectResult() (RunResult, error) {
	a.mu.Lock()
	h := a.run
	a.mu.Unlock()
	if h == nil {
		var res RunResult
		if err := a.Do(func(c *Controller) { res = c.LastResult() }); err != nil {
			return RunResult{}, err
		}
		return res, nil
	}
	select {
	case <-h.done:
		return h.res, h.err
	case <-a.quit:
		return RunResult{}, ErrClosed
	}
}

// Execute is the synchronous compatibility path: Start + CollectResult,
// identical in observable behavior (results, cycle counts, error
// shapes) to the historical blocking Controller.Execute.
func (a *AsyncController) Execute(entry uint32, maxCycles uint64) (RunResult, error) {
	return a.ExecuteOpts(entry, maxCycles, RunOptions{})
}

// ExecuteOpts is Execute with per-run hooks.
func (a *AsyncController) ExecuteOpts(entry uint32, maxCycles uint64, opts RunOptions) (RunResult, error) {
	if err := a.StartOpts(entry, maxCycles, opts); err != nil {
		if st := a.State(); st == StateFault || st == StateReset {
			return a.LastResult(), err
		}
		return RunResult{}, err
	}
	return a.CollectResult()
}

// Close shuts the actor down. An in-flight run is abandoned at the
// next slice boundary (the FPX would reload the bitfile); subsequent
// operations return ErrClosed. Close is idempotent and returns once
// the actor goroutine has exited.
func (a *AsyncController) Close() {
	a.once.Do(func() { close(a.quit) })
	a.wg.Wait()
}
