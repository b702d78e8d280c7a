package cpu

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"liquidarch/internal/isa"
)

// Golden single-step vectors: every isa.Op in each of its operand
// forms, executed once through Step from seeded architectural state
// (registers in every window, PSR flags, CWP, WIM, TBR, Y, nPC), on
// four configurations that vary the window count, the multiplier and
// MAC units and the pipeline timing. Each vector records everything
// the step can change: pc/npc/annul, PSR, WIM, TBR, Y, cycles, the
// statistics, the trap taken (or the error mode entered), the rd
// register, a checksum of the whole register file in canonical order
// and a checksum of memory.
//
// testdata/golden_step.txt was recorded from the switch-dispatch
// interpreter this package had before handlers were bound at decode
// time. It pins that interpreter's semantics; it must never be
// regenerated from the code it checks. A deliberate ISA change edits
// the affected lines by hand (the test prints each mismatching line as
// it is now computed).

const goldenFile = "testdata/golden_step.txt"

// goldenConfigs are the configurations a vector's seed cycles through.
var goldenConfigs = []Config{
	{NWindows: 8, MulDiv: true, Timing: DefaultTiming()},
	{NWindows: 5, MulDiv: true, MAC: true, Timing: DefaultTiming()},
	{NWindows: 2, Timing: DefaultTiming()},
	{NWindows: 7, MulDiv: true, MAC: true, PipelineDepth: 7, Timing: TimingForDepth(7)},
}

const goldenSeeds = 8

// goldenForms returns the operand forms an op has: register and
// immediate second operand for format 3, the annul bit for Bicc, one
// form otherwise.
func goldenForms(op isa.Op) int {
	switch op.Class() {
	case isa.ClassALU, isa.ClassLoad, isa.ClassStore, isa.ClassBranch:
		return 2
	}
	return 1
}

// goldenValue draws a register or Y value biased toward the edges the
// flag and overflow logic cares about.
func goldenValue(rng *rand.Rand) uint32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return []uint32{1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFF}[rng.Intn(6)]
	case 2:
		return uint32(rng.Intn(64))
	case 3:
		return uint32(-rng.Intn(64))
	}
	return rng.Uint32()
}

// goldenVector builds the machine for one (op, form, seed), executes one
// Step and renders the outcome as one line.
func goldenVector(t *testing.T, op isa.Op, form int, seed int) string {
	t.Helper()
	cfg := goldenConfigs[seed%len(goldenConfigs)]
	rng := rand.New(rand.NewSource(int64(op)<<16 | int64(form)<<8 | int64(seed)))
	m := newFlat(64 << 10)
	rng.Read(m.data)
	c, err := New(cfg, m, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	nwin := cfg.NWindows

	// Instruction.
	in := isa.Inst{Op: op}
	switch op.Class() {
	case isa.ClassCall:
		in.Imm = int32(rng.Intn(1<<14) - 1<<13)
	case isa.ClassSethi, isa.ClassUnimp:
		in.Rd = isa.Reg(rng.Intn(32))
		in.Imm = int32(rng.Intn(1 << 22))
	case isa.ClassBranch:
		in.Cond = isa.Cond(rng.Intn(16))
		in.Annul = form == 1
		in.Imm = int32(rng.Intn(1<<12) - 1<<11)
	default:
		in.Rd, in.Rs1 = isa.Reg(rng.Intn(32)), isa.Reg(rng.Intn(32))
		if op == isa.OpTicc {
			in.Cond = isa.Cond(rng.Intn(16))
		}
		if form == 1 {
			in.UseImm = true
			in.Imm = int32(rng.Intn(8192) - 4096)
		} else {
			in.Rs2 = isa.Reg(rng.Intn(32))
		}
	}
	// The last two seeds pin the shapes bind specialises — mov (OR
	// from %g0) and the unconditional branch — and an rd that is also
	// rs1 under the "never" condition.
	switch seed {
	case goldenSeeds - 2:
		in.Rs1, in.Cond = isa.G0, isa.CondA
	case goldenSeeds - 1:
		in.Rs1, in.Cond = in.Rd, isa.CondN
	}
	const pc = 0x1000
	binary.BigEndian.PutUint32(m.data[pc:], enc(t, in))
	// Re-decode so the fixups below see the operands Step will use
	// (the RD group canonicalizes its fields away).
	in, err = isa.Decode(binary.BigEndian.Uint32(m.data[pc:]))
	if err != nil {
		t.Fatal(err)
	}

	// Architectural state.
	regs := make([]uint32, 8+nwin*16)
	for i := 1; i < len(regs); i++ {
		regs[i] = goldenValue(rng)
	}
	setRegFile(c, regs)
	cwp := uint32(rng.Intn(nwin))
	psr := psrImplVer | cwp | uint32(rng.Intn(16))<<20 | uint32(rng.Intn(16))<<psrPILShift
	if rng.Intn(8) != 0 {
		psr |= PSRET
	}
	if rng.Intn(4) != 0 {
		psr |= PSRS
	}
	if rng.Intn(2) != 0 {
		psr |= PSRPS
	}
	setPSR(c, psr)
	for w := 0; w < nwin; w++ {
		if rng.Intn(4) == 0 {
			c.wim |= 1 << uint(w)
		}
	}
	c.tbr = rng.Uint32() & 0xF000
	c.y = goldenValue(rng)
	c.SetPC(pc)
	if rng.Intn(8) == 0 { // a delay slot: nPC is a branch target
		c.npc = uint32(rng.Intn(1<<14)) &^ 3
	}

	// Operand fixups so most vectors take the instruction's main path
	// rather than its first trap.
	op2 := func() uint32 {
		if in.UseImm {
			return uint32(in.Imm)
		}
		return c.Reg(in.Rs2)
	}
	aimAt := func(target uint32) { // make rs1+op2 == target when rs1 is writable
		if in.Rs1 != 0 && (in.UseImm || in.Rs1 != in.Rs2) {
			c.SetReg(in.Rs1, target-op2())
		}
	}
	switch {
	case op.Class() == isa.ClassLoad || op.Class() == isa.ClassStore:
		if rng.Intn(8) != 0 {
			if !in.UseImm && in.Rs2 != 0 && in.Rs2 != in.Rs1 {
				c.SetReg(in.Rs2, uint32(rng.Intn(64)))
			}
			addr := 0x4000 + uint32(rng.Intn(0x8000))
			if rng.Intn(4) != 0 {
				addr &^= 7
			}
			aimAt(addr)
		}
	case op == isa.OpJMPL || op == isa.OpRETT:
		if rng.Intn(4) != 0 {
			aimAt(uint32(rng.Intn(1<<15)) &^ 3)
		}
	case op == isa.OpWRPSR:
		if rng.Intn(2) != 0 {
			aimAt(rng.Uint32()&^psrCWPMask | uint32(rng.Intn(nwin)))
		}
	}
	switch seed % 4 {
	case 2:
		c.FlushFn = func() (int, error) { return 2, errors.New("flush fault") }
	default:
		c.FlushFn = func() (int, error) { return 3, nil }
	}
	tt, traps := -1, 0
	c.OnTrap = func(ttype uint8, _ uint32) {
		if traps == 0 {
			tt = int(ttype)
		}
		traps++
	}

	serr := c.Step()

	em := "-"
	var mode *ErrorMode
	if errors.As(serr, &mode) {
		em = fmt.Sprintf("%02x@%x", mode.TT, mode.PC)
	} else if serr != nil {
		t.Fatalf("%s: Step: %v", in.String(pc), serr)
	}
	trap := "-"
	if tt >= 0 {
		trap = fmt.Sprintf("%02x", tt)
	}
	st := c.Stats()
	an := 0
	if c.annul {
		an = 1
	}
	rf := regFile(c)
	buf := make([]byte, 4*len(rf))
	for i, v := range rf {
		binary.BigEndian.PutUint32(buf[i*4:], v)
	}
	name := op.Name()
	if op.Class() == isa.ClassALU && (strings.HasPrefix(name, "rd") || strings.HasPrefix(name, "wr")) {
		name = fmt.Sprintf("%s#%d", name, op) // the RD and WR groups share mnemonics
	}
	return fmt.Sprintf("%s/%d s%d pc=%x npc=%x an=%d psr=%08x wim=%x tbr=%x y=%x cyc=%d st=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d trap=%s/%d em=%s rd=%x regs=%08x mem=%08x",
		name, form, seed, c.PC(), c.NPC(), an, c.PSR(), c.WIM(), c.TBR(), c.Y(), c.Cycles,
		st.Instructions, st.Loads, st.Stores, st.Branches, st.Taken, st.Annulled, st.Traps,
		st.Interrupts, st.WindowSpills, st.WindowFills,
		trap, traps, em, c.Reg(in.Rd), crc32.ChecksumIEEE(buf), crc32.ChecksumIEEE(m.data))
}

// goldenLines computes every vector in file order.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for op := isa.Op(1); op.Name() != "invalid"; op++ {
		for form := 0; form < goldenForms(op); form++ {
			for seed := 0; seed < goldenSeeds; seed++ {
				lines = append(lines, goldenVector(t, op, form, seed))
			}
		}
	}
	return lines
}

// TestGoldenStepVectors replays every recorded vector through Step.
func TestGoldenStepVectors(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d vectors computed, %d recorded", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("vector %d diverged:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d vectors diverged", bad, len(got))
	}
}

// setRegFile loads the canonical register file (see regFile).
func setRegFile(c *CPU, v []uint32) { copy(c.regs[1:c.usedSlots()], v[1:]) }

// setPSR installs a PSR value, CWP included.
func setPSR(c *CPU, v uint32) {
	c.psr = v
	c.remap()
}
