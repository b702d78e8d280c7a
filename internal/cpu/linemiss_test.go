package cpu

import (
	"fmt"
	"testing"

	"liquidarch/internal/isa"
)

// Differential cases for a dispatch that meets a line that is not
// resident: the dispatch ends there, and StepN's fallback runs the
// missing word through Step, which fills its line. Each case starts
// with cold lines: StepN's own fallback fills the first line, and the
// dispatch that runs it meets the second line's miss at the crossing.
// Every case drives the sbRig (StepN against Step) profiled and
// unprofiled, in batches of several sizes, so the budget cuts the run
// at every offset, the missing word included.

// missLine is the line whose first word each case misses on: the
// program's first line, from 0x1000, falls through into it.
const missLine = 0x1000 + 8*4

// missProgram lays out setup at the head of the first line, pads that
// line with no-ops and appends lineB from missLine on.
func missProgram(setup []uint32, lineB ...uint32) []uint32 {
	return append(padTo(setup, missLine), lineB...)
}

// missBatches are the StepN batch sizes every case runs in.
var missBatches = []int{1, 2, 3, 4, 5, 7, 9, 16, 64}

// TestDiffLineMiss misses on each kind of word: a CTI taken, untaken,
// and untaken with its slot annulled; a delay slot; a device store; a
// WRPSR that unmasks a pending interrupt; a FLUSH; an illegal word; a
// word whose fetch takes a bus error; a whole line of register ops; and
// a word on a line refilled after a store made it stale.
func TestDiffLineMiss(t *testing.T) {
	const lvl = 11
	add := func(r isa.Reg) uint32 { return aluI(isa.OpADD, r, r, 1) }
	zero := aluR(isa.OpSUBcc, isa.G0, isa.G0, isa.G0) // cmp %g0, %g0: Z set
	for _, tc := range []struct {
		name          string
		words         []uint32
		base          uint32 // where the program runs (0: the rig's 0x1000)
		setup         func(r *sbRig)
		icache, total int
		check         func(r *sbRig) string
	}{
		{name: "taken CTI", words: append(padTo(missProgram(nil,
			branch(isa.CondA, missLine, missLine+0x40), add(isa.O0), add(isa.O0+1)),
			missLine+0x40), add(isa.O0+2), spinWord),
			check: func(r *sbRig) string {
				if r.b.Reg(isa.O0) != 1 || r.b.Reg(isa.O0+1) != 0 || r.b.Reg(isa.O0+2) != 1 {
					return "the branch or its slot went astray"
				}
				return ""
			}},
		{name: "untaken CTI", words: missProgram([]uint32{zero},
			branch(isa.CondNE, missLine, missLine+0x40), add(isa.O0), add(isa.O0+1), add(isa.O0+2), spinWord),
			check: func(r *sbRig) string {
				if r.b.Reg(isa.O0) != 1 || r.b.Reg(isa.O0+2) != 1 {
					return "the untaken branch did not fall through"
				}
				return ""
			}},
		{name: "annulled slot", words: missProgram([]uint32{zero},
			mustEnc(isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Annul: true, Imm: 0x10}),
			add(isa.O0), add(isa.O0+1), spinWord),
			check: func(r *sbRig) string {
				if r.b.Reg(isa.O0) != 0 || r.b.Reg(isa.O0+1) != 1 {
					return "the slot was not annulled"
				}
				return ""
			}},
		{name: "device store", words: missProgram([]uint32{
			aluI(isa.OpOR, isa.G1, isa.G0, devReg>>4),
			aluI(isa.OpSLL, isa.G1, isa.G1, 4),
			aluI(isa.OpOR, isa.G0+4, isa.G0, lvl),
		}, aluI(isa.OpST, isa.G0+4, isa.G1, 0), add(isa.O0), add(isa.O0+1), spinWord),
			setup: func(r *sbRig) {
				airq, birq := &fakeIRQ{}, &fakeIRQ{}
				r.a.irq, r.b.irq = airq, birq
				r.a.dmem = &devMem{flatMem: r.am, c: r.a, irq: airq}
				r.b.dmem = &devMem{flatMem: r.bm, c: r.b, irq: birq}
				r.poke(uint32(TrapInterruptBase+lvl)<<4, spinWord)
			},
			check: func(r *sbRig) string {
				if r.b.Stats().Interrupts != 1 || r.b.Reg(isa.I0) != 0 { // the trap's window: the outs are its ins
					return "the store's interrupt was not taken at the next boundary"
				}
				return ""
			}},
		{name: "slot on the cold line", words: missProgram([]uint32{
			aluI(isa.OpOR, isa.G0+2, isa.G0, 3),
			add(isa.O0 + 1), // 0x1004 loop:
			aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
			branch(isa.CondE, 0x100C, missLine+8), // be done
			nopWord, nopWord, nopWord,
			branch(isa.CondA, 0x101C, 0x1004), // ba loop, its slot the missing word
		}, add(isa.O0), nopWord, spinWord),
			check: func(r *sbRig) string {
				if r.b.Reg(isa.O0) != 2 || r.b.Reg(isa.O0+1) != 3 {
					return "the loop did not run its slot twice"
				}
				return ""
			}},
		{name: "WRPSR unmasks an interrupt", words: missProgram(nil,
			mustEnc(isa.Inst{Op: isa.OpWRPSR, Rs1: isa.G0, UseImm: true, Imm: PSRS | PSRET}), // PIL 0
			add(isa.O0), add(isa.O0+1), spinWord),
			setup: func(r *sbRig) {
				r.a.irq, r.b.irq = &fakeIRQ{level: lvl}, &fakeIRQ{level: lvl}
				r.a.psr |= psrPILMask // PIL 15 masks it until the WRPSR
				r.b.psr |= psrPILMask
				r.poke(uint32(TrapInterruptBase+lvl)<<4, spinWord)
			},
			check: func(r *sbRig) string {
				if r.b.Stats().Interrupts != 1 || r.b.Reg(isa.I0) != 0 {
					return "the interrupt was not taken after the WRPSR"
				}
				return ""
			}},
		{name: "FLUSH", words: missProgram(nil, flushWord, add(isa.O0), add(isa.O0+1), spinWord),
			check: func(r *sbRig) string {
				if r.b.icache.Stats().Flushes < 2 || r.b.Reg(isa.O0+1) != 1 {
					return "the FLUSH did not run"
				}
				return ""
			}},
		{name: "illegal word", words: missProgram(nil, 0x00400000, add(isa.O0), spinWord),
			setup: func(r *sbRig) { r.poke(TrapIllegalInst<<4, spinWord) },
			check: func(r *sbRig) string {
				if r.b.TBR()>>4&0xFF != TrapIllegalInst || r.b.Reg(isa.I0) != 0 {
					return "the illegal word did not trap"
				}
				return ""
			}},
		{name: "fetch bus error", base: rigMemBytes - 32,
			// The last line of the rig's memory falls through into
			// unmapped space.
			words: []uint32{add(isa.O0), add(isa.O0), add(isa.O0), add(isa.O0), add(isa.O0), add(isa.O0), add(isa.O0), add(isa.O0)},
			setup: func(r *sbRig) { r.poke(TrapIAccess<<4, spinWord) },
			check: func(r *sbRig) string {
				if r.b.TBR()>>4&0xFF != TrapIAccess || r.b.Reg(isa.I0) != 8 {
					return "the fetch past memory did not take the instruction access exception"
				}
				return ""
			}},
		{name: "register run", words: missProgram(nil,
			add(isa.O0), add(isa.O0+1), add(isa.O0+2), add(isa.O0+3), add(isa.O0), add(isa.O0+1), add(isa.O0+2), add(isa.O0+3),
			add(isa.O0+4), add(isa.O0+4), spinWord),
			check: func(r *sbRig) string {
				if r.b.Reg(isa.O0+3) != 2 || r.b.Reg(isa.O0+4) != 2 {
					return "the runs did not complete"
				}
				return ""
			}},
		{name: "stale line refill", words: staleCrossingLoop(), icache: 1 << 10, total: 80,
			check: func(r *sbRig) string {
				if g3 := r.b.Reg(isa.G0 + 3); g3 != 5 {
					return fmt.Sprintf("%%g3 = %d, want 5", g3)
				}
				return ""
			}},
	} {
		for _, prof := range profModes {
			for _, batch := range missBatches {
				tag := fmt.Sprintf("%s, profiled %v, batch %d", tc.name, prof, batch)
				icache := tc.icache
				if icache == 0 {
					icache = smallRigICache
				}
				var r *sbRig
				if tc.base == 0 {
					r = newRigICache(t, prof, icache, nil, nil, tc.words...)
				} else {
					r = newRigICache(t, prof, icache, nil, nil)
					for i, w := range tc.words {
						r.poke(tc.base+uint32(i)*4, w)
					}
					r.a.SetPC(tc.base)
					r.b.SetPC(tc.base)
				}
				if tc.setup != nil {
					tc.setup(r)
				}
				r.coldLines(t)
				total := tc.total
				if total == 0 {
					total = 40
				}
				r.driveGated(t, total, batch, tag)
				if msg := tc.check(r); msg != "" {
					t.Fatalf("%s: %s", tag, msg)
				}
				if r.b.icache.Stats().Misses < 2 {
					t.Fatalf("%s: %d instruction-cache misses; the run did not miss past its first line", tag, r.b.icache.Stats().Misses)
				}
			}
		}
	}
}

// staleCrossingLoop is staleLineLoop's case met by sequential flow: a
// loop whose head line falls through into line B. The first pass stores
// a new word over B's first word with no FLUSH, so the second pass runs
// the resident line's old word (it adds 2) and then branches to far,
// 1 KB on, which evicts B in a 1 KB cache. The third pass falls through
// into B again and misses at the crossing: the refill brings the new
// word (it adds 1), so %g3 ends at 5. An entry decoded from the stale
// line that outlived the refill would make it 6.
func staleCrossingLoop() []uint32 {
	const (
		loop = 0x1010
		far  = missLine + 0x400
	)
	newWord := aluI(isa.OpADD, isa.G0+3, isa.G0+3, 1)
	words := missProgram([]uint32{
		aluI(isa.OpOR, isa.G1, isa.G0, 0x800),
		mustEnc(isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 4, Imm: int32(newWord >> 10)}),
		aluI(isa.OpOR, isa.G0+4, isa.G0+4, int32(newWord&0x3FF)),
		aluI(isa.OpOR, isa.G0+2, isa.G0, 4),
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1), // loop:
		branch(isa.CondE, loop+4, missLine+0x28), // be done
		nopWord,
		nopWord, // falls through into B
	},
		aluI(isa.OpADD, isa.G0+3, isa.G0+3, 2), // B: the word the store replaces
		aluI(isa.OpSUBcc, isa.G0, isa.G0+2, 3),
		branch(isa.CondE, missLine+8, missLine+0x1C), // be store
		nopWord,
		branch(isa.CondA, missLine+0x10, far),
		nopWord,
		nopWord,
		aluI(isa.OpST, isa.G0+4, isa.G1, missLine-0x800), // store:
		branch(isa.CondA, missLine+0x20, loop),
		nopWord,
		spinWord, // done:
	)
	words = padTo(words, far)
	return append(words, branch(isa.CondA, far, loop), nopWord)
}

// TestDiffLineMissGates closes StepN's gates at the missing word and
// right after it: the stop address on the word and on the next, the
// step budget spent by the word, and every cycle limit across the run,
// so some fall inside the missing word's fill.
func TestDiffLineMissGates(t *testing.T) {
	words := missProgram([]uint32{aluI(isa.OpOR, isa.O0, isa.G0, 7)},
		aluI(isa.OpADD, isa.O0, isa.O0, 1), aluI(isa.OpADD, isa.O0+1, isa.O0+1, 1), aluI(isa.OpADD, isa.O0+2, isa.O0+2, 1),
		spinWord)
	for _, prof := range profModes {
		cold := func() *sbRig {
			r := newRigICache(t, prof, smallRigICache, nil, nil, words...)
			r.coldLines(t)
			return r
		}
		for _, stop := range []uint32{missLine, missLine + 4} {
			tag := fmt.Sprintf("profiled %v, stop %#x", prof, stop)
			r := cold()
			n, err := r.a.StepN(1<<30, ^uint64(0), stop)
			if err != nil || r.a.PC() != stop {
				t.Fatalf("%s: StepN = %d, %v at pc %#x", tag, n, err, r.a.PC())
			}
			r.stepRef(t, n, tag)
			r.check(t, tag)
		}
		// The budget: 8 steps run the first line, the ninth the missing
		// word.
		for _, budget := range []int{8, 9, 10} {
			tag := fmt.Sprintf("profiled %v, budget %d", prof, budget)
			r := cold()
			if n, err := r.a.StepN(budget, ^uint64(0), noStopPC); err != nil || n != budget {
				t.Fatalf("%s: StepN = %d, %v", tag, n, err)
			}
			r.stepRef(t, budget, tag)
			r.check(t, tag)
			if want := uint32(0x1000 + 4*budget); r.a.PC() != want {
				t.Fatalf("%s: pc %#x, want %#x", tag, r.a.PC(), want)
			}
		}
		// Every cycle limit through the run: the two fills take most
		// of its cycles.
		ref := cold()
		ref.stepRef(t, 13, "cycle count")
		for limit := uint64(1); limit <= ref.b.Cycles; limit++ {
			tag := fmt.Sprintf("profiled %v, cycle limit %d", prof, limit)
			r := cold()
			n, err := r.a.StepN(1<<30, limit, noStopPC)
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
				t.Fatalf("%s: %d steps, reference %d", tag, n, nb)
			}
			r.check(t, tag)
			r.drive(t, 20, 64, tag)
		}
	}
}

// footprintLoop is a three-pass loop of 160 words, more than a 512 B
// instruction cache holds, so every line crossing of every pass misses,
// the regime of the footprint kernel.
func footprintLoop(t testing.TB) []uint32 {
	t.Helper()
	words := []uint32{aluI(isa.OpOR, isa.G0+2, isa.G0, 3)}
	for i := 0; i < 155; i++ { // 0x1004 loop:
		words = append(words, aluI(isa.OpADD, isa.O0+isa.Reg(i%6), isa.O0+isa.Reg(i%6), int32(i)))
	}
	pc := 0x1000 + 4*uint32(len(words))
	return append(words,
		aluI(isa.OpSUBcc, isa.G0+2, isa.G0+2, 1),
		branch(isa.CondNE, pc+4, 0x1004),
		nopWord,
		spinWord)
}
