package leon

import (
	"testing"
	"time"

	"liquidarch/internal/amba"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateReset: "reset", StateIdle: "idle", StateRunning: "running",
		StateDone: "done", StateFault: "fault", State(99): "State(99)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestReadMemoryNegativeLength(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	if _, err := ctrl.ReadMemory(SRAMBase, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestWriteMemoryValidation(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	if err := ctrl.WriteMemory(0x100, []byte{1}); err == nil {
		t.Error("write outside SRAM accepted")
	}
	if err := ctrl.WriteMemory(SRAMBase+0x100, []byte{1, 2}); err != nil {
		t.Errorf("valid write rejected: %v", err)
	}
}

// TestErrorModeRebootsAndReportsFault: a program that disables traps
// and then faults freezes the CPU (SPARC error mode); the controller
// reboots the system — the FPX would reload the bitfile — and reports
// the run as faulted.
func TestErrorModeRebootsAndReportsFault(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, `
_start:
	rd %psr, %g1
	set 0x20, %g2
	andn %g1, %g2, %g1	! clear ET
	wr %g1, %g0, %psr
	unimp 0			! trap with ET=0: error mode
`)
	if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Execute(obj.Origin, 0)
	if err == nil {
		t.Fatal("error mode not reported")
	}
	if !res.Faulted || res.TT != 0x02 {
		t.Errorf("result = %+v", res)
	}
	if ctrl.State() != StateFault {
		t.Errorf("state = %v", ctrl.State())
	}
	// The reboot worked: a good program runs afterwards.
	good := assembleProg(t, "_start:\n\tset 0x1000, %g7\n\tjmp %g7\n\tnop\n")
	if err := ctrl.LoadProgram(good.Origin, good.Code); err != nil {
		t.Fatal(err)
	}
	res2, err := ctrl.Execute(good.Origin, 0)
	if err != nil || res2.Faulted {
		t.Fatalf("post-reboot run: %v %+v", err, res2)
	}
}

// TestDisconnectedSRAMDrivesZeros: while idle the switch of Fig. 6
// returns zeros on reads and swallows writes from the processor side.
func TestDisconnectedSRAMDrivesZeros(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	soc := ctrl.SoC()
	// Seed real data through the user port.
	if err := soc.SRAM.Poke32(0x2000, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	// Processor-side read while disconnected: zero.
	v, _, err := soc.Bus.Read(SRAMBase+0x2000, amba.SizeWord)
	if err != nil || v != 0 {
		t.Errorf("disconnected read = %#x, %v", v, err)
	}
	// Processor-side burst: zeros.
	words := make([]uint32, 4)
	if _, err := soc.Bus.ReadBurst(SRAMBase+0x2000, words); err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		if w != 0 {
			t.Errorf("disconnected burst word = %#x", w)
		}
	}
	// Processor-side write: ignored.
	if _, err := soc.Bus.Write(SRAMBase+0x2000, 0x1234, amba.SizeWord); err != nil {
		t.Fatal(err)
	}
	if got, _ := soc.SRAM.Peek32(0x2000); got != 0xDEAD {
		t.Errorf("disconnected write landed: %#x", got)
	}
}

func TestExecuteWrongState(t *testing.T) {
	soc, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	// Before Boot: Execute and LoadProgram refused.
	if _, err := ctrl.Execute(DefaultLoadAddr, 0); err == nil {
		t.Error("Execute before Boot accepted")
	}
	if err := ctrl.LoadProgram(DefaultLoadAddr, []byte{1}); err == nil {
		t.Error("LoadProgram before Boot accepted")
	}
}

func TestSwapCachesValidation(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	soc := ctrl.SoC()
	bad := soc.Config.ICache
	bad.SizeBytes = 3000
	if err := soc.SwapCaches(bad, soc.Config.DCache); err == nil {
		t.Error("invalid icache swap accepted")
	}
	bad = soc.Config.DCache
	bad.SizeBytes = 777
	if err := soc.SwapCaches(soc.Config.ICache, bad); err == nil {
		t.Error("invalid dcache swap accepted")
	}
}

// budgetRuns starts and collects obj with run, failing if it has not
// returned within a host-time bound, and returns the result and error.
func budgetRuns(t *testing.T, run func() (RunResult, error)) (RunResult, error) {
	t.Helper()
	type out struct {
		res RunResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := run()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("the run had not returned after 10 s")
		return RunResult{}, nil
	}
}

// TestStartBudgetAtCounterTop: a budget that carries the run's cycle
// limit to 2^64-1, or past it, means no limit. The limit once wrapped:
// 2^64-1-Cycles left StepN a cycle cap of 0, so the handoff never made
// progress, and 2^64-1 put the limit below the counter, so the run
// failed its budget before it started.
func TestStartBudgetAtCounterTop(t *testing.T) {
	obj := assembleProg(t, "_start:\n\tset 7, %o0\n"+epilogue)
	want := func() RunResult {
		ctrl := buildSystem(t, DefaultConfig(), nil)
		return loadAndRun(t, ctrl, obj)
	}()
	for _, name := range []string{"to the top", "past the top"} {
		ctrl := buildSystem(t, DefaultConfig(), nil)
		if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		budget := ^uint64(0)
		if name == "to the top" {
			budget -= ctrl.SoC().Cycles()
		}
		res, err := budgetRuns(t, func() (RunResult, error) { return ctrl.Execute(obj.Origin, budget) })
		if err != nil || res != want {
			t.Errorf("%s: Execute = %+v, %v; want %+v", name, res, err, want)
		}
	}
}

// TestAsyncStartBudgetAtCounterTop is TestStartBudgetAtCounterTop on
// the board actor, which serves the wire's StartReq.
func TestAsyncStartBudgetAtCounterTop(t *testing.T) {
	obj := buildAt(t, shortProg)
	for _, name := range []string{"to the top", "past the top"} {
		a := newAsync(t)
		if err := a.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		budget := ^uint64(0)
		if name == "to the top" {
			if err := a.Do(func(c *Controller) { budget -= c.SoC().Cycles() }); err != nil {
				t.Fatal(err)
			}
		}
		res, err := budgetRuns(t, func() (RunResult, error) { return a.Execute(obj.Origin, budget) })
		if err != nil || res.Faulted || res.Cycles == 0 {
			t.Errorf("%s: Execute = %+v, %v", name, res, err)
		}
	}
}
