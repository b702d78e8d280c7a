package leon

import (
	"errors"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/asm"
)

// newAsync builds a booted SoC wrapped in an actor.
func newAsync(t *testing.T) *AsyncController {
	t.Helper()
	soc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	a := NewAsyncController(ctrl)
	t.Cleanup(a.Close)
	return a
}

// buildAt assembles src at the default load address.
func buildAt(t *testing.T, src string) *asm.Object {
	t.Helper()
	obj, err := asm.AssembleAt(src, DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

const shortProg = `
_start:
	set 0xBEEF, %o0
	set result, %g1
	st %o0, [%g1]
	set 0x1000, %g7
	jmp %g7
	nop
result:	.word 0
`

// longProg spins ~6 cycles per iteration for count iterations, then
// returns to the poll loop.
const longProg = `
_start:
	set 2000000, %g2
loop:
	subcc %g2, 1, %g2
	bne loop
	nop
	set 0x1000, %g7
	jmp %g7
	nop
`

// TestAsyncStartPollCollect exercises the §3.1 flow in its true shape:
// start returns immediately, state/cycles are observable mid-run, and
// the collected result matches a blocking run bit for bit.
func TestAsyncStartPollCollect(t *testing.T) {
	// Reference: blocking run on a fresh identical SoC.
	soc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewController(soc)
	if err := ref.Boot(); err != nil {
		t.Fatal(err)
	}
	obj := buildAt(t, longProg)
	if err := ref.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(obj.Origin, 0)
	if err != nil {
		t.Fatal(err)
	}

	a := newAsync(t)
	if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	// Completion is signaled through the run-done hook, so the
	// mid-run sampling loop below ends the instant the run finishes
	// instead of discovering it by sleeping.
	done := make(chan struct{})
	a.SetRunDoneHook(func() { close(done) })
	if err := a.Start(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	// The program is long enough that we observe it running.
	sawRunning := a.State() == StateRunning
	var lastCycles uint64
sampling:
	for {
		select {
		case <-done:
			break sampling
		case <-time.After(time.Millisecond):
			if a.State() != StateRunning {
				break sampling
			}
			c := a.Cycles()
			if c < lastCycles {
				t.Fatalf("cycle counter went backwards: %d -> %d", lastCycles, c)
			}
			lastCycles = c
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("never observed StateRunning mid-run")
	}
	got, err := a.CollectResult()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("async result %+v != blocking result %+v", got, want)
	}
	if a.State() != StateDone {
		t.Errorf("state after collect = %v", a.State())
	}
	// Idempotent collect (UDP clients retransmit).
	again, err := a.CollectResult()
	if err != nil || again != got {
		t.Errorf("second collect = %+v, %v", again, err)
	}
}

// TestAsyncInterleavedOps: loads and writes are rejected mid-run with
// the controller's state error, reads are served between slices, and
// everything is race-free under -race.
func TestAsyncInterleavedOps(t *testing.T) {
	a := newAsync(t)
	obj := buildAt(t, longProg)
	if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = a.State()
				_ = a.Cycles()
				if _, err := a.ReadMemory(DefaultLoadAddr, 16); err != nil {
					t.Errorf("mid-run read: %v", err)
				}
			}
		}()
	}
	// Mid-run mutations must fail cleanly while the run is in flight.
	if a.State() == StateRunning {
		if err := a.LoadProgram(obj.Origin, obj.Code); err == nil && a.State() == StateRunning {
			t.Error("mid-run load accepted")
		}
	}
	wg.Wait()
	if _, err := a.CollectResult(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncBudgetFault: the budget path finalizes through the actor.
func TestAsyncBudgetFault(t *testing.T) {
	a := newAsync(t)
	obj := buildAt(t, longProg)
	if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(obj.Origin, 50_000); err != nil {
		t.Fatal(err)
	}
	res, err := a.CollectResult()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want budget", err)
	}
	if !res.Faulted {
		t.Errorf("result = %+v, want faulted", res)
	}
	if a.State() != StateFault {
		t.Errorf("state = %v", a.State())
	}
	// The board recovers: a short run succeeds afterwards.
	obj2 := buildAt(t, shortProg)
	if err := a.LoadProgram(obj2.Origin, obj2.Code); err != nil {
		t.Fatal(err)
	}
	res2, err := a.Execute(obj2.Origin, 0)
	if err != nil || res2.Faulted {
		t.Fatalf("recovery run: %+v, %v", res2, err)
	}
}

// TestAsyncRunHooks: Before/After fire on every run, including failed
// handoffs, and After runs before the Done state is observable.
func TestAsyncRunHooks(t *testing.T) {
	a := newAsync(t)
	obj := buildAt(t, shortProg)
	if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []string
	opts := RunOptions{
		Before: func(c *Controller) {
			mu.Lock()
			events = append(events, "before")
			mu.Unlock()
		},
		After: func(c *Controller, res RunResult, wall time.Duration, err error) {
			mu.Lock()
			events = append(events, "after")
			mu.Unlock()
		},
	}
	if _, err := a.ExecuteOpts(obj.Origin, 0, opts); err != nil {
		t.Fatal(err)
	}
	// Failed handoff (bad entry) still fires both hooks.
	if err := a.StartOpts(0x1234, 0, opts); err == nil {
		t.Fatal("bad entry accepted")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"before", "after", "before", "after"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// TestAsyncCloseAbandonsRun: Close mid-run returns promptly and later
// operations fail with ErrClosed.
func TestAsyncCloseAbandonsRun(t *testing.T) {
	soc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	a := NewAsyncController(ctrl)
	obj := buildAt(t, longProg)
	if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an in-flight run")
	}
	if err := a.LoadProgram(obj.Origin, obj.Code); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close load err = %v", err)
	}
	if _, err := a.CollectResult(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close collect err = %v", err)
	}
}

// storeLoop stores on every iteration, so no fast-forward shortens it:
// it runs until its budget ends or the actor is closed.
const storeLoop = `
_start:
	set result, %g1
loop:
	st %g0, [%g1]
	ba loop
	nop
result:	.word 0
`

// TestAsyncReload: a full swap served on the actor is refused with
// ErrRunning while a run is in flight, and a refused configuration
// changes nothing. A swap after a run boots the new fabric on the same
// memories, and the actor then answers like a freshly booted board.
func TestAsyncReload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPU.NWindows = 16

	t.Run("refused mid-run", func(t *testing.T) {
		a := newAsync(t)
		obj := buildAt(t, storeLoop)
		if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		if err := a.Start(obj.Origin, 1<<40); err != nil {
			t.Fatal(err)
		}
		if err := a.Reload(cfg); !errors.Is(err, ErrRunning) {
			t.Errorf("Reload mid-run = %v, want ErrRunning", err)
		}
		if st := a.State(); st != StateRunning {
			t.Errorf("state after a refused reload = %v, want running", st)
		}
	})

	t.Run("after a run", func(t *testing.T) {
		a := newAsync(t)
		obj := buildAt(t, shortProg)
		if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		res, err := a.Execute(obj.Origin, 0)
		if err != nil || res.Cycles == 0 {
			t.Fatalf("run = %+v, %v", res, err)
		}
		resize := cfg
		resize.SRAMSize *= 2
		if err := a.Reload(resize); err == nil {
			t.Fatal("a resize was reloaded")
		}
		if got, err := a.CollectResult(); err != nil || got != res {
			t.Errorf("result after a refused reload = %+v, %v; want %+v", got, err, res)
		}

		if err := a.Reload(cfg); err != nil {
			t.Fatal(err)
		}
		var windows int
		if err := a.Do(func(c *Controller) { windows = c.SoC().Config.CPU.NWindows }); err != nil {
			t.Fatal(err)
		}
		if windows != 16 {
			t.Errorf("the actor serves %d register windows, want 16", windows)
		}
		if a.State() != StateIdle || a.Cycles() != 0 || a.LastResult() != (RunResult{}) {
			t.Errorf("after the reload: state %v, %d cycles, last %+v; want idle and zero", a.State(), a.Cycles(), a.LastResult())
		}
		if got, err := a.CollectResult(); err != nil || got != (RunResult{}) {
			t.Errorf("collect after the reload = %+v, %v; want a zero result", got, err)
		}
		// The program is still in SRAM and runs on the new fabric.
		if got, err := a.Execute(obj.Origin, 0); err != nil || got.Cycles == 0 {
			t.Errorf("run after the reload = %+v, %v", got, err)
		}
	})
}
