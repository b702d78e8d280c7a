package cpu

import (
	"fmt"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/isa"
)

// Differential cases for chained dispatch: one dispatchBlock call runs
// on through taken and untaken branches while no gate closes. Each case
// drives the sbRig (StepN against Step) profiled and unprofiled, in
// batches of several sizes, so the step budget cuts chains at every
// offset; state, memory, instruction-cache counters and the profile
// must match after every batch.

// driveGated is drive for programs whose StepN batches may end early at
// a gate (a device access): each batch runs what StepN ran through the
// reference.
func (r *sbRig) driveGated(t *testing.T, total, batch int, tag string) {
	t.Helper()
	for done := 0; done < total; {
		n := min(batch, total-done)
		got, err := r.a.StepN(n, ^uint64(0), noStopPC)
		if err != nil || got == 0 && r.a.MemEvents&MemEventDevice == 0 {
			t.Fatalf("%s: StepN(%d) after %d steps = %d, %v", tag, n, done, got, err)
		}
		r.stepRef(t, got, tag)
		done += got
		r.check(t, fmt.Sprintf("%s after %d steps", tag, done))
	}
}

// devMem is the rig's data path with one device register: a store to
// devReg sets the device event bit, as the SoC's APB path does, and
// raises the stored interrupt level.
type devMem struct {
	*flatMem
	c   *CPU
	irq *fakeIRQ
}

const devReg = 0xF000

func (m *devMem) Write(addr, val uint32, size amba.Size) (int, error) {
	if addr == devReg {
		m.c.MemEvents |= MemEventDevice
		m.irq.level = int(val)
		return 1, nil
	}
	return m.flatMem.Write(addr, val, size)
}

// TestDiffSuperblockChainDeviceIRQ: a loop of chained segments stores
// to a device register on one iteration, raising interrupt 11. The
// device event ends the dispatch, and the interrupt is taken at the
// next instruction boundary, as the single-step interpreter takes it.
func TestDiffSuperblockChainDeviceIRQ(t *testing.T) {
	const lvl = 11
	vector := uint32(TrapInterruptBase+lvl) << 4
	words := []uint32{
		aluI(isa.OpOR, isa.G0+2, isa.G0, 6),       // mov 6, %g2
		aluI(isa.OpOR, isa.G1, isa.G0, devReg>>4), // %g1 = devReg,
		aluI(isa.OpSLL, isa.G1, isa.G1, 4),        //   0xF00 << 4
		aluI(isa.OpOR, isa.G0+4, isa.G0, lvl),     // mov 11, %g4
		aluI(isa.OpADD, isa.O0, isa.O0, 1),        // 0x1010 loop:
		aluI(isa.OpSUBcc, isa.G0, isa.G0+2, 3),    // cmp %g2, 3
		branch(isa.CondNE, 0x1018, 0x1024),        // bne skip
		nopWord,                                   //
		aluI(isa.OpST, isa.G0+4, isa.G1, 0),       // st %g4, [%g1]
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),  // 0x1024 skip:
		branch(isa.CondNE, 0x1028, 0x1010),        // bne loop
		aluI(isa.OpADD, isa.O0+1, isa.O0+1, 1),    // delay slot
		spinWord,
	}
	for _, prof := range profModes {
		for _, batch := range []int{1, 2, 3, 5, 7, 11, 64} {
			airq, birq := &fakeIRQ{}, &fakeIRQ{}
			r := newRig(t, prof, airq, birq, words...)
			r.a.dmem = &devMem{flatMem: r.am, c: r.a, irq: airq}
			r.b.dmem = &devMem{flatMem: r.bm, c: r.b, irq: birq}
			r.poke(vector, spinWord)
			tag := fmt.Sprintf("profiled %v, batch %d", prof, batch)
			r.driveGated(t, 60, batch, tag)
			if birq.acked != lvl || airq.acked != lvl {
				t.Fatalf("%s: acked %d and %d, want %d", tag, airq.acked, birq.acked, lvl)
			}
			if r.b.PC()&^4 != vector {
				t.Fatalf("%s: reference at %#x, not the vector's spin", tag, r.b.PC())
			}
		}
	}
}

// chainWindowsLoop chains a loop whose body SAVEs, moving the window
// each iteration, until a SAVE overflows into the invalid window and
// traps to a spin at the window-overflow vector.
func chainWindowsLoop(t testing.TB) []uint32 {
	t.Helper()
	return []uint32{
		aluI(isa.OpOR, isa.G0+2, isa.G0, 1<<4),      // mov 0x10, %g2
		aluR(isa.OpWRWIM, isa.G0, isa.G0+2, isa.G0), // wim = 1<<4
		aluI(isa.OpADD, isa.L0, isa.L0, 1),          // 0x1008 loop:
		aluR(isa.OpSAVE, isa.G0, isa.G0, isa.G0),    // save
		aluI(isa.OpADD, isa.O0+3, isa.I0+3, 2),      // an out from the caller's out
		branch(isa.CondA, 0x1014, 0x1008),           // ba loop
		aluI(isa.OpADD, isa.G0+3, isa.G0+3, 1),      // delay slot
		spinWord,
	}
}

// TestDiffSuperblockChainWindows runs chainWindowsLoop: chains across
// CWP changes, then the overflow trap ends the dispatch.
func TestDiffSuperblockChainWindows(t *testing.T) {
	words := chainWindowsLoop(t)
	vector := uint32(TrapWindowOverflow) << 4
	for _, prof := range profModes {
		for _, batch := range []int{1, 2, 3, 4, 6, 9, 64} {
			r := newRig(t, prof, nil, nil, words...)
			r.poke(vector, spinWord)
			tag := fmt.Sprintf("profiled %v, batch %d", prof, batch)
			r.drive(t, 40, batch, tag)
			if r.b.Stats().WindowSpills != 1 || r.b.PC()&^4 != vector {
				t.Fatalf("%s: %d spills, pc %#x; want one overflow trap to %#x",
					tag, r.b.Stats().WindowSpills, r.b.PC(), vector)
			}
		}
	}
}

// chainCoupleLoop chains a loop through a be,a whose slot is annulled
// while it is untaken, and a DCTI couple: a branch in the delay slot of
// a branch, which runs one word at the first target and then goes to
// the second. The be,a is taken after four iterations, to the spin.
func chainCoupleLoop(t testing.TB) []uint32 {
	t.Helper()
	return []uint32{
		aluI(isa.OpOR, isa.G0+2, isa.G0, 5),                                      // mov 5, %g2
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),                                 // 0x1004 loop: dec
		mustEnc(isa.Inst{Op: isa.OpBicc, Cond: isa.CondE, Annul: true, Imm: 11}), // be,a to the spin
		aluI(isa.OpADD, isa.O0, isa.O0, 100),                                     // its slot: annulled unless taken
		branch(isa.CondA, 0x1010, 0x1020),                                        // ba first
		branch(isa.CondA, 0x1014, 0x1028),                                        // ba second, in the delay slot
		spinWord,                                                                 // never reached
		nopWord,
		aluI(isa.OpADD, isa.O0+1, isa.O0+1, 1), // 0x1020 first: runs once, then second
		aluI(isa.OpADD, isa.O0+2, isa.O0+2, 1), // not run
		aluI(isa.OpADD, isa.O0+3, isa.O0+3, 1), // 0x1028 second:
		branch(isa.CondA, 0x102c, 0x1004),      // ba loop
		nopWord,
		spinWord, // 0x1034
	}
}

// TestDiffSuperblockChainCouple runs chainCoupleLoop.
func TestDiffSuperblockChainCouple(t *testing.T) {
	words := chainCoupleLoop(t)
	for _, prof := range profModes {
		for _, batch := range []int{1, 2, 3, 4, 5, 8, 13, 64} {
			r := newRig(t, prof, nil, nil, words...)
			tag := fmt.Sprintf("profiled %v, batch %d", prof, batch)
			r.drive(t, 60, batch, tag)
			if o1, o2 := r.b.Reg(isa.O0+1), r.b.Reg(isa.O0+2); o1 != 4 || o2 != 0 {
				t.Fatalf("%s: %%o1 %d, %%o2 %d; want 4 and 0", tag, o1, o2)
			}
			if r.b.Stats().Annulled == 0 {
				t.Fatalf("%s: no slot was annulled", tag)
			}
		}
	}
}

// staleLineLoop runs the line at L three times in a rig with a 1 KB
// instruction cache. After the first pass it stores a new word over
// target with no FLUSH: stores do not write the instruction cache, so
// the second pass runs the resident line's old word (target adds 2),
// as the hardware does. The second pass then branches to far, 1 KB on,
// which evicts L's line, and far branches back to L's first word,
// whose miss refills the line from memory: the third pass runs the new
// word (target adds 1), so %g3 ends at 5. An entry decoded from the
// stale line that outlived the refill would make it 6.
func staleLineLoop(t testing.TB) []uint32 {
	t.Helper()
	const (
		l      = 0x1020
		target = l + 4
		far    = l + 0x400
	)
	newWord := aluI(isa.OpADD, isa.G0+3, isa.G0+3, 1)
	words := []uint32{
		aluI(isa.OpOR, isa.G1, isa.G0, 0x800),
		mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 4, Imm: int32(newWord >> 10)}),
		aluI(isa.OpOR, isa.G0+4, isa.G0+4, int32(newWord&0x3FF)),
		aluI(isa.OpOR, isa.G0+2, isa.G0, 3),
		branch(isa.CondA, 0x1010, l),
		nopWord,
	}
	words = padTo(words, l)
	words = append(words,
		nopWord,                                // L:
		aluI(isa.OpADD, isa.G0+3, isa.G0+3, 2), // target
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondE, l+12, l+52), // be done
		nopWord,
		aluI(isa.OpSUBcc, isa.G0, isa.G0+2, 2),
		branch(isa.CondE, l+24, l+40), // be store
		nopWord,
		branch(isa.CondA, l+32, far),
		nopWord,
		aluI(isa.OpST, isa.G0+4, isa.G1, target-0x800), // store:
		branch(isa.CondA, l+44, l),
		nopWord,
		spinWord, // done:
	)
	words = padTo(words, far)
	return append(words, branch(isa.CondA, far, l), nopWord)
}

// TestDiffSuperblockStaleLineRefill runs staleLineLoop.
func TestDiffSuperblockStaleLineRefill(t *testing.T) {
	words := staleLineLoop(t)
	for _, prof := range profModes {
		for _, batch := range []int{1, 2, 3, 5, 8, 13, 64} {
			r := newRigICache(t, prof, 1<<10, nil, nil, words...)
			tag := fmt.Sprintf("profiled %v, batch %d", prof, batch)
			r.drive(t, 60, batch, tag)
			if g3 := r.b.Reg(isa.G0 + 3); g3 != 5 {
				t.Fatalf("%s: %%g3 = %d, want 5", tag, g3)
			}
		}
	}
}

// TestDiffSuperblockChainColdTarget chains into lines that are not
// resident: with a 1 KB instruction cache, staleLineLoop's branch to
// far and the branch back to L each land on a line another has
// evicted, and the dispatch must end there for Step's fill.
func TestDiffSuperblockChainColdTarget(t *testing.T) {
	words := staleLineLoop(t)
	for _, prof := range profModes {
		r := newRigICache(t, prof, 1<<10, nil, nil, words...)
		r.coldLines(t)
		r.drive(t, 60, 64, fmt.Sprintf("profiled %v", prof))
		if m := r.b.icache.Stats().Misses; m < 4 {
			t.Fatalf("profiled %v: %d instruction-cache misses; the run did not refill its lines", prof, m)
		}
	}
}

// TestDiffSuperblockChainStopPC stops at the word after a loop, which
// a dispatch first reaches by chaining: on the last iteration the
// untaken loop branch's delay slot, decoded on an earlier one, runs in
// the branch's pass and the dispatch chains on to the fall-through. The
// stop bound must be recomputed for every segment, from its own head.
func TestDiffSuperblockChainStopPC(t *testing.T) {
	for _, tc := range []struct {
		name  string
		words []uint32
		stop  uint32
	}{
		{"counted loop", countedLoop(t, 20), 0x1000 + 8*4},
		{"branch-entered loop", branchEnteredLoop(t), loopHead + 6*4},
	} {
		for _, prof := range profModes {
			tag := fmt.Sprintf("%s, profiled %v", tc.name, prof)
			r := newRig(t, prof, nil, nil, tc.words...)
			n, err := r.a.StepN(1<<30, ^uint64(0), tc.stop)
			if err != nil || r.a.PC() != tc.stop {
				t.Fatalf("%s: StepN = %d, %v at pc %#x", tag, n, err, r.a.PC())
			}
			nb := 0
			for r.b.PC() != tc.stop {
				if err := r.step(); err != nil {
					t.Fatal(err)
				}
				nb++
			}
			if n != nb {
				t.Fatalf("%s: %d steps, reference %d", tag, n, nb)
			}
			r.check(t, tag)
		}
	}
}
