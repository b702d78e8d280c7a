package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"liquidarch/internal/isa"
)

// Differential property tests for the predecoded-instruction cache:
// a CPU with the cache warm must be bit-identical — registers, control
// state, memory, cycle count, instruction mix — to one that re-decodes
// every word from scratch. CPU B calls InvalidatePredecode before
// every Step, so its cache never hits; CPU A runs normally. Any
// divergence means the predecode path changed architectural
// behaviour, which the word-revalidation scheme is supposed to make
// impossible.

// diffPair builds two CPUs over independent but identically
// initialised memories, preloaded with the same program.
func diffPair(t *testing.T, words ...uint32) (a, b *CPU, am, bm *flatMem) {
	t.Helper()
	a, am = newCPU(t, DefaultConfig(), words...)
	b, bm = newCPU(t, DefaultConfig(), words...)
	return a, b, am, bm
}

// stepBoth advances both CPUs one instruction, with B's predecode
// cache flushed first, and fails on any state divergence.
func stepBoth(t *testing.T, a, b *CPU, step int) {
	t.Helper()
	errA := a.Step()
	b.InvalidatePredecode()
	errB := b.Step()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("step %d: error divergence: cached=%v bypass=%v", step, errA, errB)
	}
	if d := diffState(a, b); d != "" {
		t.Fatalf("step %d (pc=%#x): predecoded CPU diverged: %s", step, a.PC(), d)
	}
}

// diffState compares every piece of architectural and accounting
// state; it returns "" when the CPUs agree.
func diffState(a, b *CPU) string {
	if a.PC() != b.PC() || a.NPC() != b.NPC() {
		return fmt.Sprintf("pc/npc %#x/%#x vs %#x/%#x", a.PC(), a.NPC(), b.PC(), b.NPC())
	}
	if a.PSR() != b.PSR() {
		return fmt.Sprintf("psr %#x vs %#x", a.PSR(), b.PSR())
	}
	if a.Y() != b.Y() {
		return fmt.Sprintf("y %#x vs %#x", a.Y(), b.Y())
	}
	if a.WIM() != b.WIM() || a.TBR() != b.TBR() {
		return fmt.Sprintf("wim/tbr %#x/%#x vs %#x/%#x", a.WIM(), a.TBR(), b.WIM(), b.TBR())
	}
	if a.Cycles != b.Cycles {
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Stats() != b.Stats() {
		return fmt.Sprintf("stats %+v vs %+v", a.Stats(), b.Stats())
	}
	for r := isa.Reg(0); r < 32; r++ {
		if a.Reg(r) != b.Reg(r) {
			return fmt.Sprintf("reg %d: %#x vs %#x", r, a.Reg(r), b.Reg(r))
		}
	}
	// Every window, not just the current one: a register-slot bug in
	// a window that is not current must not pass unseen.
	ra, rb := regFile(a), regFile(b)
	for i := range ra {
		if ra[i] != rb[i] {
			if i < 8 {
				return fmt.Sprintf("%%g%d: %#x vs %#x", i, ra[i], rb[i])
			}
			return fmt.Sprintf("window %d slot %d: %#x vs %#x", (i-8)/16, (i-8)%16, ra[i], rb[i])
		}
	}
	return ""
}

// regFile returns the canonical register file: %g0-%g7, then for each
// window w = 0..NWindows-1 its 16 slots (outs %o0-%o7, then locals
// %l0-%l7; a window's ins are the next window's outs).
func regFile(c *CPU) []uint32 { return c.regs[:c.usedSlots()] }

// randProgram generates a straight-line stream of ALU, sethi, shift,
// load and store instructions that can never trap: G1 holds a scratch
// base (0x800, below the program at 0x1000) and is excluded from the
// destination pool, loads/stores are word-sized with word-aligned
// offsets inside the scratch window, and shifts mask their amounts.
func randProgram(t testing.TB, rng *rand.Rand, n int) []uint32 {
	t.Helper()
	dests := []isa.Reg{
		isa.O0, isa.O0 + 1, isa.O0 + 2, isa.O0 + 3, isa.O0 + 4, isa.O0 + 5,
		isa.L0, isa.L0 + 1, isa.L0 + 2, isa.L0 + 3, isa.L0 + 4, isa.L0 + 5,
		isa.G0 + 2, isa.G0 + 3, isa.G0 + 4,
	}
	srcs := append([]isa.Reg{isa.G0, isa.G1}, dests...)
	alu := []isa.Op{
		isa.OpOR, isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpXOR,
		isa.OpADDcc, isa.OpSUBcc, isa.OpXORcc,
	}
	pick := func(rs []isa.Reg) isa.Reg { return rs[rng.Intn(len(rs))] }

	words := []uint32{enc(t, movImm(isa.G1, 0x800))}
	for len(words) < n {
		var in isa.Inst
		switch rng.Intn(10) {
		case 0: // sethi
			in = isa.Inst{Op: isa.OpSETHI, Rd: pick(dests), Imm: int32(rng.Uint32() & 0x3FFFFF)}
		case 1: // shift
			op := isa.OpSLL
			if rng.Intn(2) == 0 {
				op = isa.OpSRL
			}
			in = isa.Inst{Op: op, Rd: pick(dests), Rs1: pick(srcs), UseImm: true, Imm: int32(rng.Intn(32))}
		case 2: // load word from scratch
			in = isa.Inst{Op: isa.OpLD, Rd: pick(dests), Rs1: isa.G1, UseImm: true, Imm: int32(rng.Intn(256) * 4)}
		case 3: // store word to scratch
			in = isa.Inst{Op: isa.OpST, Rd: pick(srcs), Rs1: isa.G1, UseImm: true, Imm: int32(rng.Intn(256) * 4)}
		default: // ALU, register or small-immediate form
			in = isa.Inst{Op: alu[rng.Intn(len(alu))], Rd: pick(dests), Rs1: pick(srcs)}
			if rng.Intn(2) == 0 {
				in.UseImm = true
				in.Imm = int32(rng.Intn(8191) - 4095)
			} else {
				in.Rs2 = pick(srcs)
			}
		}
		words = append(words, enc(t, in))
	}
	return words
}

// TestDiffPredecodeRandomStreams runs seeded random programs on both
// CPUs, comparing full state after every instruction and memory at
// the end.
func TestDiffPredecodeRandomStreams(t *testing.T) {
	const progLen = 128
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			words := randProgram(t, rng, progLen)
			a, b, am, bm := diffPair(t, words...)
			for i := 0; i < len(words); i++ {
				stepBoth(t, a, b, i)
			}
			if !bytes.Equal(am.data, bm.data) {
				t.Fatal("memory images diverged")
			}
		})
	}
}

// TestDiffPredecodeLoopHitsCache runs a counted loop so CPU A
// actually executes from warm predecode entries (a straight-line
// stream never re-visits a PC). The loop body touches memory and the
// condition codes; both CPUs must retire the same work.
func TestDiffPredecodeLoopHitsCache(t *testing.T) {
	// o0 = 0; for g2 = 50; g2 != 0; g2-- { o0 += 3; st o0 -> [g1] }
	words := []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, movImm(isa.G0+2, 50)),
		enc(t, movImm(isa.O0, 0)),
		// loop:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 3}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G1, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Imm: -3}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}), // delay-slot nop
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),        // spin
	}
	a, b, am, bm := diffPair(t, words...)
	// 3 setup + 50 iterations × 5 (body 3 + branch + delay slot) + slack.
	steps := 3 + 50*5 + 4
	for i := 0; i < steps; i++ {
		stepBoth(t, a, b, i)
	}
	if got := a.Reg(isa.O0); got != 150 {
		t.Fatalf("loop result %%o0 = %d, want 150", got)
	}
	if !bytes.Equal(am.data, bm.data) {
		t.Fatal("memory images diverged")
	}
}

// TestDiffPredecodeSelfModifyingStore overwrites an executed loop
// instruction through the CPU's own store port. The predecode entry
// for that PC is stale after the store; the word re-check must force
// a re-decode so both CPUs execute the NEW instruction on the next
// iteration.
func TestDiffPredecodeSelfModifyingStore(t *testing.T) {
	const progBase = 0x1000
	// Program layout (word index from progBase):
	//  0  or  %g0, 0x800, %g1     scratch/base
	//  1  or  %g0, 2, %g2         loop counter
	//  2  or  %g0, 0, %o0         accumulator
	//  3  sethi %hi(new), %g3     build replacement word "add %o0, 100, %o0"
	//  4  or  %g3, %lo(new), %g3
	//  5  or  %g0, 0, %o5         (nop-ish filler keeps offsets readable)
	// loop:
	//  6  add %o0, 1, %o0         <- overwritten with "add %o0, 100, %o0"
	//  7  st  %g3, [%g1 + 0x820]  store new word over instruction slot 6
	//  8  subcc %g2, 1, %g2
	//  9  bne loop
	// 10  nop (delay slot)
	// 11  ba,a .                  spin
	//
	// Slot 6 lives at progBase+24 = 0x1018 = %g1(0x800) + 0x818.
	newWord := enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 100})
	words := []uint32{
		enc(t, movImm(isa.G1, 0x800)),
		enc(t, movImm(isa.G0+2, 2)),
		enc(t, movImm(isa.O0, 0)),
		enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.G0 + 3, Imm: int32(newWord >> 10)}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0 + 3, Rs1: isa.G0 + 3, UseImm: true, Imm: int32(newWord & 0x3FF)}),
		enc(t, movImm(isa.O0+5, 0)),
		// loop:
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.G0 + 3, Rs1: isa.G1, UseImm: true, Imm: 0x818}),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0 + 2, Rs1: isa.G0 + 2, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Imm: -3}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0}),
	}
	a, b, am, bm := diffPair(t, words...)
	// 6 setup + 2 iterations × 5 + slack.
	for i := 0; i < 6+2*5+4; i++ {
		stepBoth(t, a, b, i)
	}
	// Iteration 1 runs the original "+1", then overwrites the slot;
	// iteration 2 must decode the new word and add 100.
	if got := a.Reg(isa.O0); got != 101 {
		t.Fatalf("self-modified loop %%o0 = %d, want 101 (stale predecode executed?)", got)
	}
	if !bytes.Equal(am.data, bm.data) {
		t.Fatal("memory images diverged")
	}
}

// TestDiffPredecodeInvalidateIsArchitecturallyInvisible: flushing the
// cache mid-run at arbitrary points must never change behaviour.
func TestDiffPredecodeInvalidateIsArchitecturallyInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	words := randProgram(t, rng, 96)
	a, _ := newCPU(t, DefaultConfig(), words...)
	b, _ := newCPU(t, DefaultConfig(), words...)
	for i := 0; i < len(words); i++ {
		if err := a.Step(); err != nil {
			t.Fatalf("cached step %d: %v", i, err)
		}
		if rng.Intn(4) == 0 {
			b.InvalidatePredecode()
		}
		if err := b.Step(); err != nil {
			t.Fatalf("flushed step %d: %v", i, err)
		}
		if d := diffState(a, b); d != "" {
			t.Fatalf("step %d: random invalidation changed behaviour: %s", i, d)
		}
	}
}
