package leon

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Differential tests for event-horizon stepping: SoC.StepN — horizon
// batches, bulk prescaler settlement, superblock dispatch underneath —
// must be bit-identical to the per-step interpreter (soc.Step in a
// loop), for every quantum, including timer underflows, interrupt
// delivery and the boot ROM's poll-loop fast-forward.

// socDiff compares all CPU-visible state of two systems.
func socDiff(a, b *SoC) string {
	ac, bc := a.CPU, b.CPU
	if ac.PC() != bc.PC() || ac.NPC() != bc.NPC() {
		return fmt.Sprintf("pc/npc %#x/%#x vs %#x/%#x", ac.PC(), ac.NPC(), bc.PC(), bc.NPC())
	}
	if ac.PSR() != bc.PSR() {
		return fmt.Sprintf("psr %#x vs %#x", ac.PSR(), bc.PSR())
	}
	if ac.Cycles != bc.Cycles {
		return fmt.Sprintf("cycles %d vs %d", ac.Cycles, bc.Cycles)
	}
	if ac.Stats() != bc.Stats() {
		return fmt.Sprintf("stats %+v vs %+v", ac.Stats(), bc.Stats())
	}
	return ""
}

// timerIRQProg arms the prescaled timer with interrupts unmasked, then
// burns time in a counted spin — every timer underflow interrupts it.
const timerIRQProg = `
_start:
	set 0x80000094, %g1	! IRQ mask
	set 0xFFFE, %g2
	st %g2, [%g1]
	set 0x80000044, %g1	! timer reload
	mov 200, %g2
	st %g2, [%g1]
	set 0x80000048, %g1	! timer control: enable|reload|load|irq
	mov 0xF, %g2
	st %g2, [%g1]
	set 3000, %g3
spin:
	subcc %g3, 1, %g3
	bne spin
	nop
` + epilogue

// buildSystemQuantum is buildSystem with an event-horizon batch cap.
func buildSystemQuantum(t *testing.T, cfg Config, quantum uint64) *Controller {
	t.Helper()
	soc, err := NewWithOptions(cfg, nil, Options{Quantum: quantum})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestHorizonTimerBitIdentical runs the timer-interrupt program on a
// per-step reference machine and on horizon-batched machines at a
// sweep of quanta. Results, cycle counts, interrupt counts and all
// CPU state must match bit for bit — the horizon must fire every
// underflow at exactly the instruction boundary the per-step
// interpreter fired it.
func TestHorizonTimerBitIdentical(t *testing.T) {
	obj := assembleProg(t, timerIRQProg)

	// Reference: per-step interpreter all the way through the run.
	ref := buildSystem(t, DefaultConfig(), nil)
	if err := ref.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	refSoC := ref.SoC()
	for refSoC.CPU.PC() != ROMPollAddr {
		if err := refSoC.Step(); err != nil {
			t.Fatalf("reference step (pc=%#x): %v", refSoC.CPU.PC(), err)
		}
	}
	refRes, err := ref.CollectResult() // already at the poll loop: finalizes only
	if err != nil {
		t.Fatal(err)
	}
	if refSoC.CPU.Stats().Interrupts == 0 {
		t.Fatal("reference run took no timer interrupts — test proves nothing")
	}

	for _, quantum := range []uint64{0, 1, 7, 64, 1024} {
		quantum := quantum
		t.Run(fmt.Sprintf("quantum%d", quantum), func(t *testing.T) {
			ctrl := buildSystemQuantum(t, DefaultConfig(), quantum)
			if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
				t.Fatal(err)
			}
			if err := ctrl.Start(obj.Origin, 0); err != nil {
				t.Fatal(err)
			}
			res, err := ctrl.CollectResult()
			if err != nil {
				t.Fatal(err)
			}
			if res != refRes {
				t.Fatalf("result %+v vs reference %+v", res, refRes)
			}
			if d := socDiff(ctrl.SoC(), refSoC); d != "" {
				t.Fatalf("horizon run diverged from per-step reference: %s", d)
			}
			if got, want := ctrl.IRQCount(), ref.IRQCount(); got != want {
				t.Fatalf("ROM stub IRQ count %d vs %d", got, want)
			}
		})
	}
}

// TestHorizonPollIdleBitIdentical parks both machines in the boot
// ROM's mailbox poll loop (Fig. 5) and lets them idle: the batched
// machine fast-forwards the side-effect-free spin, the reference
// emulates every iteration, and after the same number of steps the
// cycle counters and all state must agree exactly — fast-forwarded
// cycles are real simulated time.
func TestHorizonPollIdleBitIdentical(t *testing.T) {
	a := buildSystem(t, DefaultConfig(), nil).SoC()
	b := buildSystem(t, DefaultConfig(), nil).SoC()
	const steps = 200_000
	const noStop = uint32(1) // never a fetch PC
	n, err := a.StepN(steps, ^uint64(0), noStop)
	if err != nil {
		t.Fatal(err)
	}
	if n != steps {
		t.Fatalf("StepN executed %d of %d idle steps", n, steps)
	}
	for i := 0; i < steps; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
	}
	if d := socDiff(a, b); d != "" {
		t.Fatalf("idle fast-forward diverged: %s", d)
	}
	if pc := a.CPU.PC(); pc < ROMPollAddr || pc > ROMPollAddr+0x20 {
		t.Fatalf("pc drifted to %#x while idle", pc)
	}
}

// TestHorizonCycleCapBoundary sweeps StepN's cycle cap across an
// active stretch of the timer program: stopping and resuming at every
// cap must land on the same boundaries the per-step loop observes.
func TestHorizonCycleCapBoundary(t *testing.T) {
	obj := assembleProg(t, timerIRQProg)
	const noStop = uint32(1)
	for cap := uint64(50); cap <= 2000; cap += 111 {
		a := buildSystem(t, DefaultConfig(), nil)
		b := buildSystem(t, DefaultConfig(), nil)
		for _, c := range []*Controller{a, b} {
			if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
				t.Fatal(err)
			}
			if err := c.Start(obj.Origin, 0); err != nil {
				t.Fatal(err)
			}
		}
		as, bs := a.SoC(), b.SoC()
		limit := as.CPU.Cycles + cap
		n, err := as.StepN(1<<30, limit, noStop)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		nb := 0
		for bs.CPU.Cycles < limit {
			if err := bs.Step(); err != nil {
				t.Fatalf("cap %d reference: %v", cap, err)
			}
			nb++
		}
		if n != nb {
			t.Fatalf("cap %d: steps %d vs %d", cap, n, nb)
		}
		if d := socDiff(as, bs); d != "" {
			t.Fatalf("cap %d: diverged at boundary: %s", cap, d)
		}
	}
}

// staleLineProg runs the line at L three times. After the first pass
// it stores a new word over target with no FLUSH: stores do not write
// the instruction cache, so the second pass runs the resident line's
// old word (target adds 2), as the hardware does. After the second
// pass it runs far, 1 KB on, which evicts L's line from DefaultConfig's
// 1 KB direct-mapped instruction cache, and re-enters L at its first
// word, whose miss refills the line from memory: the third pass runs
// the new word (target adds 1). %g3 ends at 2+2+1 = 5. A predecoded
// entry of the old word that outlived the refill would run 2 again.
const staleLineProg = `
_start:
	set newword, %g5
	ld [%g5], %g4
	set target, %g1
	mov 0, %g3
	mov 3, %g2
	ba L
	nop
	.align 1024
L:
	nop
target:
	add %g3, 2, %g3
	subcc %g2, 1, %g2
	be done
	nop
	cmp %g2, 2
	be store
	nop
	ba far
	nop
store:
	st %g4, [%g1]
	ba L
	nop
done:
` + epilogue + `
newword:
	add %g3, 1, %g3
	.align 1024
far:
	ba L
	nop
`

// TestHorizonStaleLineRefill runs staleLineProg on the per-step
// interpreter and through horizon batches: the refill must drop the
// entry decoded from the stale line, so both end with %g3 = 5.
func TestHorizonStaleLineRefill(t *testing.T) {
	obj := assembleProg(t, staleLineProg)
	var socs []*SoC
	for _, stepped := range []bool{true, false} {
		ctrl := buildSystem(t, DefaultConfig(), nil)
		if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Start(obj.Origin, 0); err != nil {
			t.Fatal(err)
		}
		soc := ctrl.SoC()
		for stepped && soc.CPU.PC() != ROMPollAddr {
			if err := soc.Step(); err != nil {
				t.Fatalf("reference step (pc=%#x): %v", soc.CPU.PC(), err)
			}
		}
		if _, err := ctrl.CollectResult(); err != nil {
			t.Fatal(err)
		}
		if g3 := soc.CPU.Reg(3); g3 != 5 {
			t.Errorf("stepped %v: %%g3 = %d, want 5", stepped, g3)
		}
		socs = append(socs, soc)
	}
	if d := socDiff(socs[1], socs[0]); d != "" {
		t.Fatalf("horizon run diverged from per-step reference: %s", d)
	}
}

// TestSpinGuestFastForwards: a guest parked in a `ba .; nop` spin runs
// out its default 2^32-cycle budget in well under a second of host
// time, because the poll-loop fast-forward replays the spin rather
// than emulating it (emulated, the budget takes tens of seconds). A
// dispatch must return to StepN's spin bookkeeping at the backward
// branch for that to happen.
func TestSpinGuestFastForwards(t *testing.T) {
	ctrl := buildSystem(t, DefaultConfig(), nil)
	obj := assembleProg(t, "_start:\n\tba _start\n\tnop\n")
	if err := ctrl.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := ctrl.Execute(obj.Origin, 0)
	if !errors.Is(err, ErrBudget) || res.Cycles < 1<<32-1<<20 {
		t.Fatalf("Execute = %+v, %v; want the budget exhausted", res, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the spin took %v of host time to exhaust its budget", d)
	}
}
