package cpu

import (
	"fmt"
	"testing"

	"liquidarch/internal/isa"
)

// Differential cases for register runs: dispatchBlock executes a line's
// consecutive register ops as one batch whose length it caches on the
// run's first entry, trusted only in the predecode generation and run
// epoch it was measured in. Each case drives the sbRig (StepN against
// Step) and must match bit for bit: registers in every window, icc,
// Cycles, Stats, fetch counters and, profiled, the execution profile.

// runLine is a line-aligned run head in the rig's program.
const runLine = 0x1000 + 8*4

func aluI(op isa.Op, rd, rs1 isa.Reg, imm int32) uint32 {
	w, err := isa.Encode(isa.Inst{Op: op, Rd: rd, Rs1: rs1, UseImm: true, Imm: imm})
	if err != nil {
		panic(err)
	}
	return w
}

func aluR(op isa.Op, rd, rs1, rs2 isa.Reg) uint32 {
	w, err := isa.Encode(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
	if err != nil {
		panic(err)
	}
	return w
}

// Words shared by the run programs.
var (
	nopWord   = aluI(isa.OpOR, isa.G0, isa.G0, 0) // an lcc-style no-op write to %g0
	spinWord  = mustEnc(isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
	flushWord = mustEnc(isa.Inst{Op: isa.OpFLUSH, Rs1: isa.G0, UseImm: true, Imm: 0})
)

func mustEnc(in isa.Inst) uint32 {
	w, err := isa.Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}

// branch encodes a Bicc at pc to target.
func branch(cond isa.Cond, pc, target uint32) uint32 {
	return mustEnc(isa.Inst{Op: isa.OpBicc, Cond: cond, Imm: int32(target-pc) / 4})
}

// padTo appends no-ops (register ops, so part of a run) until words
// reaches addr.
func padTo(words []uint32, addr uint32) []uint32 {
	for 0x1000+4*uint32(len(words)) < addr {
		words = append(words, nopWord)
	}
	return words
}

// drive runs total steps through a in StepN batches of the given size
// and through the reference step by step, checking after every batch.
func (r *sbRig) drive(t *testing.T, total, batch int, tag string) {
	t.Helper()
	for done := 0; done < total; {
		n := min(batch, total-done)
		if got, err := r.a.StepN(n, ^uint64(0), noStopPC); err != nil || got != n {
			t.Fatalf("%s: StepN(%d) after %d steps = %d, %v", tag, n, done, got, err)
		}
		r.stepRef(t, n, tag)
		done += n
		r.check(t, fmt.Sprintf("%s after %d steps", tag, done))
	}
}

// runLoop is a 4-iteration loop whose body is two register runs — a
// whole line at runLine, then six words ending in the loop's subcc —
// then the bne back with a register op in its delay slot. The ops
// cover every register-op shape: both operand forms, cc forms read
// back by addx/subx, sethi and the shifts.
func runLoop(t testing.TB) []uint32 {
	t.Helper()
	o0, o1, o2, o3, o4, o5 := isa.O0, isa.O0+1, isa.O0+2, isa.O0+3, isa.O0+4, isa.O0+5
	l0, l1, l2, l3, l4, l5 := isa.L0, isa.L0+1, isa.L0+2, isa.L0+3, isa.L0+4, isa.L0+5
	words := padTo([]uint32{aluI(isa.OpOR, isa.G0+2, isa.G0, 4)}, runLine)
	words = append(words,
		// runLine:
		aluI(isa.OpADD, o0, o0, 1),
		aluI(isa.OpSLL, o1, o0, 29),
		aluR(isa.OpXOR, o2, o1, o0),
		aluI(isa.OpSUBcc, o3, o2, 5),
		aluR(isa.OpADDX, o4, o3, o1),
		mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: o5, Imm: 0x48D15}),
		aluI(isa.OpORcc, o5, o5, 0x67),
		aluR(isa.OpSRL, l0, o5, o0),
		// runLine+32:
		aluR(isa.OpANDN, l1, l0, o2),
		aluR(isa.OpXNORcc, l2, l1, o3),
		aluI(isa.OpSRA, l3, l2, 7),
		aluR(isa.OpSUBXcc, l4, l3, o4),
		aluR(isa.OpORNcc, l5, l4, o1),
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, runLine+56, runLine),
		aluI(isa.OpADD, o0, o0, 1), // delay slot
		spinWord,
	)
	return words
}

// runLoopSteps is runLoop's length to its spin: the prologue, then
// four iterations of sixteen.
const runLoopSteps = 8 + 4*16

// TestDiffSuperblockRunCutShort cuts register runs short by each of
// the three gates a batch settles at once — the step budget, the stop
// PC and the cycle cap — at every word, both on a run's first visit
// (length measured) and on later ones (length cached).
func TestDiffSuperblockRunCutShort(t *testing.T) {
	const total = runLoopSteps + 12
	words := runLoop(t)
	for _, prof := range profModes {
		for batch := 1; batch <= 17; batch++ {
			newRig(t, prof, nil, nil, words...).drive(t, total, batch, fmt.Sprintf("step budget %d", batch))
		}
		// Stop PCs: anywhere on the first pass, and in the loop body
		// again after one whole iteration has cached its runs.
		for _, pre := range []int{0, 8 + 16} {
			first := uint32(0x1000)
			if pre > 0 {
				first = runLine
			}
			for stop := first; stop < runLine+64; stop += 4 {
				tag := fmt.Sprintf("stop PC %#x after %d steps", stop, pre)
				r := newRig(t, prof, nil, nil, words...)
				if pre > 0 {
					r.drive(t, pre, pre, tag)
				}
				n, err := r.a.StepN(1<<20, ^uint64(0), stop)
				if err != nil || r.a.PC() != stop {
					t.Fatalf("%s: StepN = %d, %v, at pc %#x", tag, n, err, r.a.PC())
				}
				nb := 0
				for r.b.PC() != stop {
					if err := r.step(); err != nil {
						t.Fatalf("%s: reference: %v", tag, err)
					}
					nb++
				}
				if n != nb {
					t.Fatalf("%s: steps to the stop PC: superblock %d vs single-step %d", tag, n, nb)
				}
				r.check(t, tag)
				r.drive(t, total-pre-n, total, tag)
			}
		}
		for limit := uint64(1); limit <= total; limit++ {
			tag := fmt.Sprintf("cycle cap %d", limit)
			r := newRig(t, prof, nil, nil, words...)
			n, err := r.a.StepN(1<<20, limit, noStopPC)
			if err != nil {
				t.Fatalf("%s: StepN: %v", tag, err)
			}
			nb := 0
			for r.b.Cycles < limit {
				if err := r.step(); err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				nb++
			}
			if n != nb {
				t.Fatalf("%s: steps to the cap: superblock %d vs single-step %d", tag, n, nb)
			}
			r.check(t, tag)
			r.drive(t, total-n, total, tag)
		}
	}
}

// selfModRunLoop runs the whole line at runLine twice. Between the
// passes a store overwrites the word at runLine+16, inside the run
// whose length the first pass cached, with newWord; with flush set a
// FLUSH follows the store, as self-modifying code must on the
// hardware.
func selfModRunLoop(t testing.TB, newWord uint32, flush bool) []uint32 {
	t.Helper()
	const target = runLine + 16
	barrier := nopWord
	if flush {
		barrier = flushWord
	}
	words := []uint32{
		aluI(isa.OpOR, isa.G1, isa.G0, 0x800),
		mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 3, Imm: int32(newWord >> 10)}),
		aluI(isa.OpOR, isa.G0+3, isa.G0+3, int32(newWord&0x3FF)),
		aluI(isa.OpOR, isa.G0+2, isa.G0, 2),
	}
	words = padTo(words, runLine)
	for i := int32(0); i < 8; i++ {
		words = append(words, aluI(isa.OpADD, isa.O0+isa.Reg(i%4), isa.O0+isa.Reg(i%4), i+1))
	}
	return append(words,
		aluI(isa.OpST, isa.G0+3, isa.G1, target-0x800),
		barrier,
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, runLine+44, runLine),
		nopWord,
		spinWord,
	)
}

// TestDiffSuperblockRunSelfModify overwrites a word inside a cached
// run — with another register op, and with a store that splits the run
// in two — with and without a FLUSH after the store. The store must
// retire the cached length: a batch that reused it would run the old
// word, or run the new store as if it were a register op.
func TestDiffSuperblockRunSelfModify(t *testing.T) {
	for _, nw := range []struct {
		name string
		word uint32
	}{
		{"register op", aluI(isa.OpADD, isa.O0, isa.O0, 100)},
		{"store", aluI(isa.OpST, isa.O0, isa.G1, 0)},
	} {
		for _, flush := range []bool{true, false} {
			words := selfModRunLoop(t, nw.word, flush)
			for _, prof := range profModes {
				for _, batch := range []int{1, 2, 3, 5, 8, 13, 64} {
					tag := fmt.Sprintf("%s, flush %v, batch %d", nw.name, flush, batch)
					r := newRig(t, prof, nil, nil, words...)
					r.drive(t, 50, batch, tag)
					if got := r.b.Reg(isa.O0); got == 0 {
						t.Fatalf("%s: the run never executed", tag)
					}
				}
			}
		}
	}
}

// aliasedRuns alternates two runs whose words share predecode
// entries: run A fills a line, run B starts 32 KB and two words later,
// so decoding B evicts the last six entries of A's cached run, and
// decoding A again evicts B's. The prologue stores B's code (the
// program fits in 2 KB, as a fuzz input must); A is the first line
// after it. It returns the words, A and the spin after the loop.
func aliasedRuns(t testing.TB) (words []uint32, headA, spin uint32) {
	t.Helper()
	var far []uint32 // at headB = headA + 0x8000 + 8
	for i := int32(0); i < 6; i++ {
		far = append(far, aluI(isa.OpXOR, isa.O0+isa.Reg(i%4), isa.O0+isa.Reg(i%4), 0x40<<i))
	}
	far = append(far,
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, 0x8000+8+28, 0), // to headA
		nopWord,
		branch(isa.CondA, 0x8000+8+36, 40), // to the spin
		nopWord,
	)
	headA = 0x1000 + 4*uint32(3+3*len(far))
	headA = (headA + 31) &^ 31
	headB := headA + 0x8000 + 8
	words = []uint32{
		mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 4, Imm: int32(headB >> 10)}),
		aluI(isa.OpOR, isa.G0+4, isa.G0+4, int32(headB&0x3FF)),
	}
	for i, w := range far {
		words = append(words,
			mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 3, Imm: int32(w >> 10)}),
			aluI(isa.OpOR, isa.G0+3, isa.G0+3, int32(w&0x3FF)),
			aluI(isa.OpST, isa.G0+3, isa.G0+4, int32(4*i)))
	}
	words = padTo(append(words, aluI(isa.OpOR, isa.G0+2, isa.G0, 5)), headA)
	for i := int32(0); i < 8; i++ {
		words = append(words, aluI(isa.OpADD, isa.O0+isa.Reg(i%4), isa.O0+isa.Reg(i%4), i+1))
	}
	words = append(words,
		branch(isa.CondA, headA+32, headB),
		nopWord,
		spinWord, // headA+40
	)
	return words, headA, headA + 40
}

// TestDiffSuperblockRunAliasingHeads runs aliasedRuns: each eviction
// must retire the cached run lengths, since a batch that trusted one
// would execute the other run's instructions.
func TestDiffSuperblockRunAliasingHeads(t *testing.T) {
	words, _, spin := aliasedRuns(t)
	const total = 36 + 4 + 5*19 + 8
	for _, prof := range profModes {
		for _, batch := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, total} {
			r := newRig(t, prof, nil, nil, words...)
			r.drive(t, total, batch, fmt.Sprintf("batch %d", batch))
			if r.b.PC()&^4 != spin || r.b.Reg(isa.G0+2) != 0 { // the spin or its annulled slot
				t.Fatalf("batch %d: the reference did not finish the loop (pc %#x)", batch, r.b.PC())
			}
		}
	}
}

// windowedRuns reaches one run head under three CWPs: a SAVE after the
// run moves the window each iteration, so the run's register fields
// resolve to other slots every time.
func windowedRuns(t testing.TB) []uint32 {
	t.Helper()
	i0, i2, i3, i4, i5 := isa.I0, isa.I0+2, isa.I0+3, isa.I0+4, isa.I0+5
	words := padTo([]uint32{aluI(isa.OpOR, isa.G0+2, isa.G0, 3)}, runLine)
	return append(words,
		aluR(isa.OpADD, isa.L0, isa.L0, i0),
		aluR(isa.OpXOR, isa.O0+1, isa.O0+1, isa.L0),
		aluR(isa.OpSUB, isa.L0+2, i2, isa.O0+1),
		aluI(isa.OpOR, isa.O0+3, isa.L0+2, 0x55),
		aluI(isa.OpSLL, isa.L0+3, i3, 3),
		aluR(isa.OpADDcc, isa.O0+4, isa.L0+3, isa.O0+3),
		aluR(isa.OpANDcc, isa.L0+4, isa.O0+4, i4),
		aluI(isa.OpSRL, i5, isa.L0+4, 2),
		// runLine+32:
		aluR(isa.OpSAVE, isa.G0, isa.G0, isa.G0),
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, runLine+40, runLine),
		nopWord,
		spinWord,
	)
}

// TestDiffSuperblockRunTwoWindows runs windowedRuns with the whole
// register file seeded, so every window's slots differ.
func TestDiffSuperblockRunTwoWindows(t *testing.T) {
	words := windowedRuns(t)
	for _, prof := range profModes {
		for _, batch := range []int{1, 3, 7, 8, 9, 64} {
			r := newRig(t, prof, nil, nil, words...)
			for i := 1; i < r.a.usedSlots(); i++ {
				v := uint32(i) * 0x9E3779B9
				r.a.regs[i], r.b.regs[i] = v, v
			}
			r.drive(t, 60, batch, fmt.Sprintf("batch %d", batch))
			if cwp := r.b.CWP(); cwp != DefaultConfig().NWindows-3 {
				t.Fatalf("batch %d: CWP %d after three SAVEs", batch, cwp)
			}
		}
	}
}

// wrapRuns runs the line at runLine, then three FLUSHes, then the line
// again, and spins at runLine+64.
func wrapRuns(t testing.TB) []uint32 {
	t.Helper()
	words := padTo([]uint32{aluI(isa.OpOR, isa.G0+2, isa.G0, 1)}, runLine)
	for i := int32(0); i < 8; i++ {
		words = append(words, aluI(isa.OpADD, isa.O0+isa.Reg(i%4), isa.O0+isa.Reg(i%4), i+1))
	}
	return append(words,
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1), // runLine+32
		branch(isa.CondNEG, runLine+36, runLine+64),
		nopWord,
		flushWord, flushWord, flushWord,
		branch(isa.CondA, runLine+56, runLine),
		nopWord,
		spinWord, // runLine+64
	)
}

// TestDiffSuperblockGenerationWrap runs wrapRuns' first pass,
// overwrites the line behind the CPU's back (as a user-port load
// does), sets the predecode generation just below 2^32 and lets the
// FLUSHes carry it across the wrap before the line runs again. The
// wrap must clear the table: the first pass's entries carry a small
// generation the counter reaches again, and a live-looking stale entry
// would run the old words (the reference, re-checking every fetched
// word, runs the new ones). Each start lands the counter on another
// generation.
func TestDiffSuperblockGenerationWrap(t *testing.T) {
	words := wrapRuns(t)
	for _, prof := range profModes {
		for _, below := range []uint32{1, 2, 3} {
			tag := fmt.Sprintf("start 2^32-%d", below)
			r := newRig(t, prof, nil, nil, words...)
			if n, err := r.a.StepN(1<<20, ^uint64(0), runLine+32); err != nil || r.a.PC() != runLine+32 {
				t.Fatalf("%s: first pass StepN = %d, %v", tag, n, err)
			} else {
				r.stepRef(t, n, tag)
			}
			r.check(t, tag+": first pass")
			for i := uint32(0); i < 8; i++ {
				r.poke(runLine+4*i, aluI(isa.OpXOR, isa.O0+isa.Reg(i%4), isa.O0+isa.Reg(i%4), int32(0x10<<i)))
			}
			r.a.genKey = uint64(-below) << 32
			r.drive(t, 30, 7, tag)
			if gen := uint32(r.a.genKey >> 32); gen >= 1<<31 {
				t.Fatalf("%s: generation %#x; the FLUSHes did not wrap it", tag, gen)
			}
			if r.b.PC()&^4 != runLine+64 { // the spin or its annulled slot
				t.Fatalf("%s: reference at %#x, not the spin", tag, r.b.PC())
			}
		}
	}
}

// TestDiffSuperblockLoneRegOp: a register op that heads a run of one
// is demoted to kindOne when its run is measured, and a run that
// reaches it from an earlier head still counts it. The loop's subcc is
// reached as a block head by cutting the first batch after the add,
// and the loop's head then measures a run of two through it.
func TestDiffSuperblockLoneRegOp(t *testing.T) {
	const head, lone = 0x1004, 0x1008
	words := []uint32{
		aluI(isa.OpOR, isa.G0+2, isa.G0, 3), // mov 3, %g2
		aluI(isa.OpADD, isa.O0, isa.O0, 1),  // head:
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, 0x100c, head),
		nopWord, // delay slot
		spinWord,
	}
	for _, prof := range profModes {
		r := newRig(t, prof, nil, nil, words...)
		r.drive(t, 2, 2, "mov and add")
		r.drive(t, 3+2*4, 64, "the loop from its subcc")
		if e := r.a.predecode[(lone>>2)&predecodeMask]; e.kind != kindOne || e.run != 1 {
			t.Fatalf("subcc: kind %d, run %d; want kindOne, 1", e.kind, e.run)
		}
		if e := r.a.predecode[(head>>2)&predecodeMask]; e.kind != kindReg || e.run != 2 {
			t.Fatalf("loop head: kind %d, run %d; want kindReg, 2", e.kind, e.run)
		}
	}
}
