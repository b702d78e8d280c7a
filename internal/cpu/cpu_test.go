package cpu

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/isa"
)

// flatMem is a simple 1-cycle memory for CPU unit tests.
type flatMem struct {
	data []byte
}

func newFlat(size int) *flatMem { return &flatMem{data: make([]byte, size)} }

func (m *flatMem) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if int(addr)+int(size) > len(m.data) {
		return 0, 1, &amba.BusError{Addr: addr}
	}
	switch size {
	case amba.SizeWord:
		return binary.BigEndian.Uint32(m.data[addr:]), 1, nil
	case amba.SizeHalf:
		return uint32(binary.BigEndian.Uint16(m.data[addr:])), 1, nil
	default:
		return uint32(m.data[addr]), 1, nil
	}
}

func (m *flatMem) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	if int(addr)+int(size) > len(m.data) {
		return 1, &amba.BusError{Addr: addr, Write: true}
	}
	switch size {
	case amba.SizeWord:
		binary.BigEndian.PutUint32(m.data[addr:], val)
	case amba.SizeHalf:
		binary.BigEndian.PutUint16(m.data[addr:], uint16(val))
	default:
		m.data[addr] = byte(val)
	}
	return 1, nil
}

// enc encodes or dies.
func enc(t testing.TB, in isa.Inst) uint32 {
	t.Helper()
	w, err := isa.Encode(in)
	if err != nil {
		t.Fatalf("encode %+v: %v", in, err)
	}
	return w
}

// newCPU builds a CPU over a shared 64 KB flat memory preloaded with
// the given instruction words at address 0, with traps enabled and a
// trap table that just spins (so unexpected traps are visible).
func newCPU(t *testing.T, cfg Config, words ...uint32) (*CPU, *flatMem) {
	t.Helper()
	m := newFlat(64 << 10)
	const progBase = 0x1000
	for i, w := range words {
		binary.BigEndian.PutUint32(m.data[progBase+i*4:], w)
	}
	c, err := New(cfg, m, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enable traps with TBR=0 and start at the program base.
	c.psr |= PSRET
	c.SetPC(progBase)
	return c, m
}

// run steps n instructions, failing on error mode.
func run(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Step(); err != nil {
			t.Fatalf("step %d (pc=%#x): %v", i, c.PC(), err)
		}
	}
}

func movImm(rd isa.Reg, v int32) isa.Inst {
	return isa.Inst{Op: isa.OpOR, Rd: rd, Rs1: isa.G0, UseImm: true, Imm: v}
}

func TestMovAndArithmetic(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, 40)),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 2}),
		enc(t, isa.Inst{Op: isa.OpSUB, Rd: isa.O0 + 1, Rs1: isa.O0, UseImm: true, Imm: 10}),
	)
	run(t, c, 3)
	if got := c.Reg(isa.O0); got != 42 {
		t.Errorf("%%o0 = %d, want 42", got)
	}
	if got := c.Reg(isa.O0 + 1); got != 32 {
		t.Errorf("%%o1 = %d, want 32", got)
	}
	if c.Stats().Instructions != 3 {
		t.Errorf("instruction count = %d", c.Stats().Instructions)
	}
}

func TestG0AlwaysZero(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.G0, 99)),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 1}),
	)
	run(t, c, 2)
	if c.Reg(isa.G0) != 0 {
		t.Error("register g0 became non-zero")
	}
	if c.Reg(isa.O0) != 1 {
		t.Errorf("%%o0 = %d", c.Reg(isa.O0))
	}
}

func TestSethiOrConstant(t *testing.T) {
	// set 0xDEADBEEF: sethi %hi, then or %lo.
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.G1, Imm: int32(0xDEADBEEF >> 10)}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.G1, Rs1: isa.G1, UseImm: true, Imm: int32(0xDEADBEEF & 0x3FF)}),
	)
	run(t, c, 2)
	if got := c.Reg(isa.G1); got != 0xDEADBEEF {
		t.Errorf("%%g1 = %#x", got)
	}
}

func TestAddccFlags(t *testing.T) {
	cases := []struct {
		a, b       uint32
		n, z, v, y bool // y = carry
	}{
		{1, 1, false, false, false, false},
		{0xFFFFFFFF, 1, false, true, false, true},
		{0x7FFFFFFF, 1, true, false, true, false},
		{0x80000000, 0x80000000, false, true, true, true},
		{0, 0, false, true, false, false},
	}
	for _, cse := range cases {
		c, _ := newCPU(t, DefaultConfig(),
			enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.O0, Imm: int32(cse.a >> 10)}),
			enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: int32(cse.a & 0x3FF)}),
			enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.O0 + 1, Imm: int32(cse.b >> 10)}),
			enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.O0 + 1, Rs1: isa.O0 + 1, UseImm: true, Imm: int32(cse.b & 0x3FF)}),
			enc(t, isa.Inst{Op: isa.OpADDcc, Rd: isa.O0 + 2, Rs1: isa.O0, Rs2: isa.O0 + 1}),
		)
		run(t, c, 5)
		psr := c.PSR()
		if got := psr&PSRNegative != 0; got != cse.n {
			t.Errorf("addcc(%#x,%#x): N=%v want %v", cse.a, cse.b, got, cse.n)
		}
		if got := psr&PSRZero != 0; got != cse.z {
			t.Errorf("addcc(%#x,%#x): Z=%v want %v", cse.a, cse.b, got, cse.z)
		}
		if got := psr&PSROverflow != 0; got != cse.v {
			t.Errorf("addcc(%#x,%#x): V=%v want %v", cse.a, cse.b, got, cse.v)
		}
		if got := psr&PSRCarry != 0; got != cse.y {
			t.Errorf("addcc(%#x,%#x): C=%v want %v", cse.a, cse.b, got, cse.y)
		}
	}
}

func TestSubccBorrowAndCompare(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, 5)),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0, Rs1: isa.O0, UseImm: true, Imm: 7}), // cmp 5,7
	)
	run(t, c, 2)
	psr := c.PSR()
	if psr&PSRCarry == 0 {
		t.Error("cmp 5,7: borrow (C) not set")
	}
	if psr&PSRNegative == 0 {
		t.Error("cmp 5,7: N not set")
	}
	if psr&PSRZero != 0 || psr&PSROverflow != 0 {
		t.Error("cmp 5,7: Z or V wrongly set")
	}
}

func Test64BitAddViaAddx(t *testing.T) {
	// 0x00000001_FFFFFFFF + 1 = 0x00000002_00000000
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, -1)),  // low a = 0xFFFFFFFF
		enc(t, movImm(isa.O0+1, 1)), // high a = 1
		enc(t, isa.Inst{Op: isa.OpADDcc, Rd: isa.O0 + 2, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpADDX, Rd: isa.O0 + 3, Rs1: isa.O0 + 1, UseImm: true, Imm: 0}),
	)
	run(t, c, 4)
	if lo := c.Reg(isa.O0 + 2); lo != 0 {
		t.Errorf("low = %#x", lo)
	}
	if hi := c.Reg(isa.O0 + 3); hi != 2 {
		t.Errorf("high = %#x, want 2", hi)
	}
}

func TestSubxBorrowChain(t *testing.T) {
	// 0x00000002_00000000 - 1 = 0x00000001_FFFFFFFF
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, 0)),
		enc(t, movImm(isa.O0+1, 2)),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.O0 + 2, Rs1: isa.O0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpSUBX, Rd: isa.O0 + 3, Rs1: isa.O0 + 1, UseImm: true, Imm: 0}),
	)
	run(t, c, 4)
	if lo := c.Reg(isa.O0 + 2); lo != 0xFFFFFFFF {
		t.Errorf("low = %#x", lo)
	}
	if hi := c.Reg(isa.O0 + 3); hi != 1 {
		t.Errorf("high = %#x, want 1", hi)
	}
}

func TestLogicAndShifts(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, 0xF0)),
		enc(t, isa.Inst{Op: isa.OpAND, Rd: isa.O0 + 1, Rs1: isa.O0, UseImm: true, Imm: 0x3C}),
		enc(t, isa.Inst{Op: isa.OpXOR, Rd: isa.O0 + 2, Rs1: isa.O0, UseImm: true, Imm: 0xFF}),
		enc(t, isa.Inst{Op: isa.OpSLL, Rd: isa.O0 + 3, Rs1: isa.O0, UseImm: true, Imm: 4}),
		enc(t, isa.Inst{Op: isa.OpSRL, Rd: isa.O0 + 4, Rs1: isa.O0, UseImm: true, Imm: 4}),
		enc(t, movImm(isa.O0+5, -16)),
		enc(t, isa.Inst{Op: isa.OpSRA, Rd: isa.O0 + 5, Rs1: isa.O0 + 5, UseImm: true, Imm: 2}),
		enc(t, isa.Inst{Op: isa.OpANDN, Rd: isa.L0, Rs1: isa.O0, UseImm: true, Imm: 0x30}),
		enc(t, isa.Inst{Op: isa.OpORN, Rd: isa.L1, Rs1: isa.G0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpXNOR, Rd: isa.L2, Rs1: isa.O0, Rs2: isa.O0}),
	)
	run(t, c, 10)
	checks := map[isa.Reg]uint32{
		isa.O0 + 1: 0x30,
		isa.O0 + 2: 0x0F,
		isa.O0 + 3: 0xF00,
		isa.O0 + 4: 0x0F,
		isa.O0 + 5: 0xFFFFFFFC,
		isa.L0:     0xC0,
		isa.L1:     0xFFFFFFFF,
		isa.L2:     0xFFFFFFFF,
	}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("%s = %#x, want %#x", r.Name(), got, want)
		}
	}
}

func TestBranchTakenNotTakenAnnul(t *testing.T) {
	// cmp 1,1; be +3 (taken); mov 10 (delay, executes); mov 99 (skipped); target: mov 7
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}), // sets Z
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondE, Imm: 3}),
		enc(t, movImm(isa.O0, 10)),   // delay slot
		enc(t, movImm(isa.O0+1, 99)), // skipped
		enc(t, movImm(isa.O0+2, 7)),  // branch target
	)
	run(t, c, 4)
	if c.Reg(isa.O0) != 10 {
		t.Error("delay slot of taken branch not executed")
	}
	if c.Reg(isa.O0+1) != 0 {
		t.Error("skipped instruction executed")
	}
	if c.Reg(isa.O0+2) != 7 {
		t.Error("branch target not reached")
	}
	st := c.Stats()
	if st.Branches != 1 || st.Taken != 1 {
		t.Errorf("branch stats = %+v", st)
	}
}

func TestAnnulledDelaySlotUntaken(t *testing.T) {
	// bne,a (untaken since Z set): delay slot annulled.
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpSUBcc, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondNE, Annul: true, Imm: 3}),
		enc(t, movImm(isa.O0, 55)), // annulled
		enc(t, movImm(isa.O0+1, 1)),
	)
	run(t, c, 4)
	if c.Reg(isa.O0) != 0 {
		t.Error("annulled delay slot executed")
	}
	if c.Reg(isa.O0+1) != 1 {
		t.Error("fall-through instruction not executed")
	}
	if c.Stats().Annulled != 1 {
		t.Errorf("Annulled = %d", c.Stats().Annulled)
	}
}

func TestBaAnnulSkipsDelay(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 2}),
		enc(t, movImm(isa.O0, 55)),  // annulled even though taken
		enc(t, movImm(isa.O0+1, 1)), // target
	)
	run(t, c, 3)
	if c.Reg(isa.O0) != 0 {
		t.Error("ba,a delay slot executed")
	}
	if c.Reg(isa.O0+1) != 1 {
		t.Error("ba,a target not reached")
	}
}

func TestCallAndJmplReturn(t *testing.T) {
	// call +4; nop (delay); mov 9 (after return lands here+? )
	// Layout: 0x1000 call 0x1010; 0x1004 nop(delay); 0x1008 mov %o2,3; 0x100C ba,a spin
	// 0x1010 sub: mov %o0,1; jmpl %o7+8,%g0 (retl); nop (delay)
	spin := enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Annul: true, Imm: 0})
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpCALL, Imm: 4}),
		isa.NOP,
		enc(t, movImm(isa.O0+2, 3)),
		spin,
		enc(t, movImm(isa.O0, 1)), // 0x1010: sub body
		enc(t, isa.Inst{Op: isa.OpJMPL, Rd: isa.G0, Rs1: isa.O7, UseImm: true, Imm: 8}),
		isa.NOP,
	)
	run(t, c, 6)
	if c.Reg(isa.O7) != 0x1000 {
		t.Errorf("%%o7 = %#x, want 0x1000", c.Reg(isa.O7))
	}
	if c.Reg(isa.O0) != 1 {
		t.Error("subroutine body not executed")
	}
	if c.Reg(isa.O0+2) != 3 {
		t.Error("return target not reached")
	}
}

func TestLoadsStoresAllSizes(t *testing.T) {
	c, m := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.L0, 0x800)),
		enc(t, isa.Inst{Op: isa.OpLD, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpLDUB, Rd: isa.O0 + 1, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpLDSB, Rd: isa.O0 + 2, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpLDUH, Rd: isa.O0 + 3, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpLDSH, Rd: isa.O0 + 4, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 8}),
		enc(t, isa.Inst{Op: isa.OpSTB, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 12}),
		enc(t, isa.Inst{Op: isa.OpSTH, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 14}),
	)
	binary.BigEndian.PutUint32(m.data[0x800:], 0xF1E2D3C4)
	run(t, c, 9)
	if got := c.Reg(isa.O0); got != 0xF1E2D3C4 {
		t.Errorf("ld = %#x", got)
	}
	if got := c.Reg(isa.O0 + 1); got != 0xF1 {
		t.Errorf("ldub = %#x", got)
	}
	if got := c.Reg(isa.O0 + 2); got != 0xFFFFFFF1 {
		t.Errorf("ldsb = %#x (sign extension)", got)
	}
	if got := c.Reg(isa.O0 + 3); got != 0xF1E2 {
		t.Errorf("lduh = %#x", got)
	}
	if got := c.Reg(isa.O0 + 4); got != 0xFFFFF1E2 {
		t.Errorf("ldsh = %#x (sign extension)", got)
	}
	if got := binary.BigEndian.Uint32(m.data[0x808:]); got != 0xF1E2D3C4 {
		t.Errorf("st wrote %#x", got)
	}
	if m.data[0x80C] != 0xC4 {
		t.Errorf("stb wrote %#x", m.data[0x80C])
	}
	if got := binary.BigEndian.Uint16(m.data[0x80E:]); got != 0xD3C4 {
		t.Errorf("sth wrote %#x", got)
	}
}

func TestLddStd(t *testing.T) {
	c, m := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.L0, 0x800)),
		enc(t, isa.Inst{Op: isa.OpLDD, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpSTD, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 16}),
	)
	binary.BigEndian.PutUint64(m.data[0x800:], 0x0102030405060708)
	run(t, c, 3)
	if c.Reg(isa.O0) != 0x01020304 || c.Reg(isa.O0+1) != 0x05060708 {
		t.Errorf("ldd = %#x %#x", c.Reg(isa.O0), c.Reg(isa.O0+1))
	}
	if got := binary.BigEndian.Uint64(m.data[0x810:]); got != 0x0102030405060708 {
		t.Errorf("std wrote %#x", got)
	}
}

func TestSwapAndLdstub(t *testing.T) {
	c, m := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.L0, 0x800)),
		enc(t, movImm(isa.O0, 0x77)),
		enc(t, isa.Inst{Op: isa.OpSWAP, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpLDSTUB, Rd: isa.O0 + 1, Rs1: isa.L0, UseImm: true, Imm: 4}),
	)
	binary.BigEndian.PutUint32(m.data[0x800:], 0x12345678)
	m.data[0x804] = 0x5A
	run(t, c, 4)
	if c.Reg(isa.O0) != 0x12345678 {
		t.Errorf("swap loaded %#x", c.Reg(isa.O0))
	}
	if got := binary.BigEndian.Uint32(m.data[0x800:]); got != 0x77 {
		t.Errorf("swap stored %#x", got)
	}
	if c.Reg(isa.O0+1) != 0x5A {
		t.Errorf("ldstub loaded %#x", c.Reg(isa.O0+1))
	}
	if m.data[0x804] != 0xFF {
		t.Errorf("ldstub stored %#x, want 0xFF", m.data[0x804])
	}
}

func TestMulDivAndY(t *testing.T) {
	// 100000 = 0x186A0 exceeds simm13, so it is built with sethi/or.
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpSETHI, Rd: isa.O0, Imm: int32(100000 >> 10)}),
		enc(t, isa.Inst{Op: isa.OpOR, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: int32(100000 & 0x3FF)}),
		enc(t, isa.Inst{Op: isa.OpUMUL, Rd: isa.O0 + 1, Rs1: isa.O0, Rs2: isa.O0}), // 1e10 > 32 bits
		enc(t, isa.Inst{Op: isa.OpRDY, Rd: isa.O0 + 2}),
		enc(t, movImm(isa.O0+3, -6)),
		enc(t, isa.Inst{Op: isa.OpSMUL, Rd: isa.O0 + 4, Rs1: isa.O0 + 3, UseImm: true, Imm: 7}), // -42
		enc(t, isa.Inst{Op: isa.OpWRY, Rs1: isa.G0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpUDIV, Rd: isa.O0 + 5, Rs1: isa.O0, UseImm: true, Imm: 7}),
		enc(t, isa.Inst{Op: isa.OpSDIV, Rd: isa.L0, Rs1: isa.O0 + 3, UseImm: true, Imm: 2}), // would need Y sign...
	)
	run(t, c, 8)
	var p uint64 = 100000 * 100000
	if got := c.Reg(isa.O0 + 1); got != uint32(p) {
		t.Errorf("umul low = %#x, want %#x", got, uint32(p))
	}
	if got := c.Reg(isa.O0 + 2); got != uint32(p>>32) {
		t.Errorf("Y = %#x, want %#x", got, uint32(p>>32))
	}
	if got := c.Reg(isa.O0 + 4); got != uint32(0xFFFFFFFF-41) {
		t.Errorf("smul = %#x, want -42", got)
	}
	if got := c.Reg(isa.O0 + 5); got != 100000/7 {
		t.Errorf("udiv = %d, want %d", got, 100000/7)
	}
}

func TestDivByZeroTrapsToVector(t *testing.T) {
	trapped := uint8(0)
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpUDIV, Rd: isa.O0, Rs1: isa.O0, Rs2: isa.G0}),
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 1)
	if trapped != TrapDivZero {
		t.Errorf("trap type = %#x, want %#x", trapped, TrapDivZero)
	}
	// Vectored to TBR | tt<<4.
	if c.PC() != uint32(TrapDivZero)<<4 {
		t.Errorf("pc = %#x after trap", c.PC())
	}
	if c.PSR()&PSRET != 0 {
		t.Error("ET still set inside trap")
	}
}

func TestMULSccComputesProduct(t *testing.T) {
	// Classic 32-step multiply: 13 * 11 = 143 using mulscc.
	// Setup: Y = multiplier, rs1 = 0 (accumulator), clear N and V.
	words := []uint32{
		enc(t, movImm(isa.O0, 13)), // multiplicand in %o0 (operand2)
		enc(t, isa.Inst{Op: isa.OpWRY, Rs1: isa.G0, UseImm: true, Imm: 11}),     // Y = multiplier
		enc(t, isa.Inst{Op: isa.OpANDcc, Rd: isa.G0, Rs1: isa.G0, Rs2: isa.G0}), // clear flags
		enc(t, movImm(isa.O0+1, 0)), // accumulator
	}
	for i := 0; i < 32; i++ {
		words = append(words, enc(t, isa.Inst{Op: isa.OpMULScc, Rd: isa.O0 + 1, Rs1: isa.O0 + 1, Rs2: isa.O0}))
	}
	// Final shift-correct step with %g0.
	words = append(words, enc(t, isa.Inst{Op: isa.OpMULScc, Rd: isa.O0 + 1, Rs1: isa.O0 + 1, Rs2: isa.G0}))
	words = append(words, enc(t, isa.Inst{Op: isa.OpRDY, Rd: isa.O0 + 2}))
	c, _ := newCPU(t, DefaultConfig(), words...)
	run(t, c, len(words))
	if got := c.Reg(isa.O0 + 2); got != 143 {
		t.Errorf("mulscc product (Y) = %d, want 143", got)
	}
}

func TestTrapIllegalWhenETClear(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpUNIMP, Imm: 0}),
	)
	c.psr &^= PSRET
	err := c.Step()
	var em *ErrorMode
	if !errors.As(err, &em) {
		t.Fatalf("err = %v, want ErrorMode", err)
	}
	if em.TT != TrapIllegalInst {
		t.Errorf("TT = %#x", em.TT)
	}
	if em.Error() == "" {
		t.Error("empty error string")
	}
}

func TestAlignmentTraps(t *testing.T) {
	for _, in := range []isa.Inst{
		{Op: isa.OpLD, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 2},
		{Op: isa.OpLDUH, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 1},
		{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 3},
		{Op: isa.OpLDD, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 4},
		{Op: isa.OpJMPL, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 2},
	} {
		trapped := uint8(0)
		c, _ := newCPU(t, DefaultConfig(), enc(t, in))
		c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
		run(t, c, 1)
		if trapped != TrapAlignment {
			t.Errorf("%v: trap = %#x, want alignment", in.Op.Name(), trapped)
		}
	}
}

func TestLddOddRdIllegal(t *testing.T) {
	trapped := uint8(0)
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpLDD, Rd: isa.O0 + 1, Rs1: isa.G0, UseImm: true, Imm: 0}),
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 1)
	if trapped != TrapIllegalInst {
		t.Errorf("trap = %#x", trapped)
	}
}

func TestSaveRestoreWindows(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.O0, 7)),
		enc(t, isa.Inst{Op: isa.OpSAVE, Rd: isa.SP, Rs1: isa.SP, UseImm: true, Imm: -96}),
		enc(t, isa.Inst{Op: isa.OpADD, Rd: isa.L0, Rs1: isa.I0, UseImm: true, Imm: 1}),
		enc(t, isa.Inst{Op: isa.OpRESTORE, Rd: isa.O0 + 1, Rs1: isa.L0, UseImm: true, Imm: 0}),
	)
	startCWP := c.CWP()
	run(t, c, 2)
	if c.CWP() != (startCWP+c.Config().NWindows-1)%c.Config().NWindows {
		t.Errorf("CWP after save = %d", c.CWP())
	}
	// %i0 in new window is old %o0.
	if got := c.Reg(isa.I0); got != 7 {
		t.Errorf("%%i0 = %d, want 7 (window overlap)", got)
	}
	run(t, c, 2)
	if c.CWP() != startCWP {
		t.Errorf("CWP after restore = %d", c.CWP())
	}
	// restore's result (computed in old window's %l0 = 8) lands in
	// the restored window's %o1.
	if got := c.Reg(isa.O0 + 1); got != 8 {
		t.Errorf("restore result = %d, want 8", got)
	}
}

func TestWindowOverflowTrap(t *testing.T) {
	trapped := uint8(0)
	cfg := DefaultConfig()
	c, _ := newCPU(t, cfg,
		enc(t, isa.Inst{Op: isa.OpWRWIM, Rs1: isa.G0, UseImm: true, Imm: 1 << 7}),         // invalidate window 7
		enc(t, isa.Inst{Op: isa.OpSAVE, Rd: isa.SP, Rs1: isa.SP, UseImm: true, Imm: -96}), // CWP 0→7: trap
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 2)
	if trapped != TrapWindowOverflow {
		t.Errorf("trap = %#x, want window overflow", trapped)
	}
	if c.Stats().WindowSpills != 1 {
		t.Errorf("WindowSpills = %d", c.Stats().WindowSpills)
	}
	// The trapped save must NOT have changed CWP (it re-executes
	// after the handler): trap entry decrements once only.
	if c.CWP() != 7 {
		t.Errorf("CWP in trap = %d, want 7 (one decrement by trap entry)", c.CWP())
	}
	// %l1 in the trap window holds the PC of the save.
	if got := c.Reg(isa.L1); got != 0x1004 {
		t.Errorf("%%l1 = %#x, want save PC 0x1004", got)
	}
}

func TestWindowUnderflowTrap(t *testing.T) {
	trapped := uint8(0)
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpWRWIM, Rs1: isa.G0, UseImm: true, Imm: 1 << 1}),
		enc(t, isa.Inst{Op: isa.OpRESTORE}), // CWP 0→1: trap
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 2)
	if trapped != TrapWindowUnderflow {
		t.Errorf("trap = %#x, want window underflow", trapped)
	}
}

func TestTrapAndRett(t *testing.T) {
	// Software trap ta 0x10 vectors to (0x80+0x10)<<4 = 0x900; the
	// handler sets %g2 and returns with jmp %l2; rett %l2+4.
	prog := []uint32{
		enc(t, isa.Inst{Op: isa.OpTicc, Cond: isa.CondA, Rs1: isa.G0, UseImm: true, Imm: 0x10}),
		enc(t, movImm(isa.O0, 5)), // after return
	}
	c, m := newCPU(t, DefaultConfig(), prog...)
	handler := []uint32{
		enc(t, movImm(isa.G1+1, 0xAB)), // %g2 = 0xAB
		enc(t, isa.Inst{Op: isa.OpJMPL, Rd: isa.G0, Rs1: isa.L2, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpRETT, Rs1: isa.L2, UseImm: true, Imm: 4}),
	}
	for i, w := range handler {
		binary.BigEndian.PutUint32(m.data[0x900+i*4:], w)
	}
	// ta(1) + handler(3) + resumed mov(1) = 5 steps.
	run(t, c, 5)
	if got := c.Reg(isa.G1 + 1); got != 0xAB {
		t.Errorf("handler did not run: %%g2 = %#x", got)
	}
	if got := c.Reg(isa.O0); got != 5 {
		t.Errorf("did not resume after trap: %%o0 = %d", got)
	}
	if c.PSR()&PSRET == 0 {
		t.Error("ET not restored by rett")
	}
}

func TestInterruptDelivery(t *testing.T) {
	irq := &fakeIRQ{level: 3}
	m := newFlat(64 << 10)
	// Spin loop at 0x1000.
	binary.BigEndian.PutUint32(m.data[0x1000:], enc(t, isa.Inst{Op: isa.OpBicc, Cond: isa.CondA, Imm: 0}))
	binary.BigEndian.PutUint32(m.data[0x1004:], isa.NOP)
	c, err := New(DefaultConfig(), m, m, irq)
	if err != nil {
		t.Fatal(err)
	}
	c.psr |= PSRET
	c.SetPC(0x1000)
	run(t, c, 1)
	if irq.acked != 3 {
		t.Errorf("irq acked = %d, want 3", irq.acked)
	}
	if c.PC() != uint32(TrapInterruptBase+3)<<4 {
		t.Errorf("pc = %#x, want interrupt vector", c.PC())
	}
	if c.Stats().Interrupts != 1 {
		t.Errorf("Interrupts = %d", c.Stats().Interrupts)
	}
}

func TestInterruptMaskedByPIL(t *testing.T) {
	irq := &fakeIRQ{level: 3}
	m := newFlat(64 << 10)
	binary.BigEndian.PutUint32(m.data[0x1000:], isa.NOP)
	binary.BigEndian.PutUint32(m.data[0x1004:], isa.NOP)
	c, _ := New(DefaultConfig(), m, m, irq)
	c.psr |= PSRET | 5<<psrPILShift // PIL=5 masks level 3
	c.SetPC(0x1000)
	run(t, c, 1)
	if irq.acked != 0 {
		t.Error("masked interrupt was acked")
	}
	// Level 15 is never masked.
	irq.level = 15
	run(t, c, 1)
	if irq.acked != 15 {
		t.Errorf("level 15 not delivered: acked = %d", irq.acked)
	}
}

type fakeIRQ struct {
	level int
	acked int
}

func (f *fakeIRQ) Pending() int { return f.level }
func (f *fakeIRQ) Ack(l int)    { f.acked = l; f.level = 0 }

func TestMACExtension(t *testing.T) {
	// Without MAC: illegal instruction.
	trapped := uint8(0)
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpLQMAC, Rd: isa.O0, Rs1: isa.O0 + 1, Rs2: isa.O0 + 2}),
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 1)
	if trapped != TrapIllegalInst {
		t.Errorf("LQMAC without MAC unit: trap = %#x", trapped)
	}
	// With MAC: rd += rs1*rs2, no extra mul latency.
	cfg := DefaultConfig()
	cfg.MAC = true
	c, _ = newCPU(t, cfg,
		enc(t, movImm(isa.O0, 100)),
		enc(t, movImm(isa.O0+1, 6)),
		enc(t, movImm(isa.O0+2, 7)),
		enc(t, isa.Inst{Op: isa.OpLQMAC, Rd: isa.O0, Rs1: isa.O0 + 1, Rs2: isa.O0 + 2}),
	)
	run(t, c, 4)
	if got := c.Reg(isa.O0); got != 142 {
		t.Errorf("lqmac = %d, want 142", got)
	}
}

func TestNoMulDivConfigTraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MulDiv = false
	trapped := uint8(0)
	c, _ := newCPU(t, cfg,
		enc(t, isa.Inst{Op: isa.OpUMUL, Rd: isa.O0, Rs1: isa.O0, Rs2: isa.O0}),
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 1)
	if trapped != TrapIllegalInst {
		t.Errorf("umul without hardware: trap = %#x", trapped)
	}
}

func TestWRPSRValidatesCWP(t *testing.T) {
	trapped := uint8(0)
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpWRPSR, Rs1: isa.G0, UseImm: true, Imm: 0xEF}), // CWP=15 ≥ 8
	)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	run(t, c, 1)
	if trapped != TrapIllegalInst {
		t.Errorf("WRPSR with bad CWP: trap = %#x", trapped)
	}
}

func TestCycleAccounting(t *testing.T) {
	cfg := DefaultConfig()
	// ALU op: fetch(1) cycles.
	c, _ := newCPU(t, cfg, enc(t, movImm(isa.O0, 1)))
	run(t, c, 1)
	aluCycles := c.Cycles
	// Load: fetch(1) + access(1) + Load extra.
	c2, _ := newCPU(t, cfg, enc(t, isa.Inst{Op: isa.OpLD, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 0}))
	run(t, c2, 1)
	if c2.Cycles <= aluCycles {
		t.Errorf("load (%d cycles) not slower than ALU (%d)", c2.Cycles, aluCycles)
	}
	wantLoad := aluCycles + 1 + uint64(cfg.Timing.Load)
	if c2.Cycles != wantLoad {
		t.Errorf("load cycles = %d, want %d", c2.Cycles, wantLoad)
	}
	// Store slower than load.
	c3, _ := newCPU(t, cfg, enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.G0, UseImm: true, Imm: 0}))
	run(t, c3, 1)
	if c3.Cycles <= c2.Cycles {
		t.Errorf("store (%d) not slower than load (%d)", c3.Cycles, c2.Cycles)
	}
	// Division much slower.
	c4, _ := newCPU(t, cfg, enc(t, isa.Inst{Op: isa.OpUDIV, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 3}))
	run(t, c4, 1)
	if c4.Cycles < uint64(cfg.Timing.Div) {
		t.Errorf("div cycles = %d", c4.Cycles)
	}
}

func TestTraceHooks(t *testing.T) {
	var mems int
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.L0, 0x800)),
		enc(t, isa.Inst{Op: isa.OpLD, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 0}),
		enc(t, isa.Inst{Op: isa.OpST, Rd: isa.O0, Rs1: isa.L0, UseImm: true, Imm: 4}),
	)
	var memWrites []bool
	c.StartProfile()
	c.OnMem = func(addr uint32, size amba.Size, write bool) {
		mems++
		memWrites = append(memWrites, write)
	}
	run(t, c, 3)
	heat := map[uint32]uint64{}
	c.StopProfile(heat)
	if want := map[uint32]uint64{0x1000: 1, 0x1004: 1, 0x1008: 1}; !reflect.DeepEqual(heat, want) {
		t.Errorf("profile = %v, want %v", heat, want)
	}
	if mems != 2 || !memWrites[1] || memWrites[0] {
		t.Errorf("OnMem fired %d times, writes=%v", mems, memWrites)
	}
}

func TestFlushCallsHook(t *testing.T) {
	called := false
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, isa.Inst{Op: isa.OpFLUSH, Rs1: isa.G0, UseImm: true, Imm: 0}),
	)
	c.FlushFn = func() (int, error) { called = true; return 10, nil }
	before := c.Cycles
	run(t, c, 1)
	if !called {
		t.Error("FLUSH did not invoke FlushFn")
	}
	if c.Cycles < before+10 {
		t.Error("flush cycles not charged")
	}
}

func TestConfigValidation(t *testing.T) {
	m := newFlat(64)
	for _, n := range []int{0, 1, 33, -4} {
		cfg := DefaultConfig()
		cfg.NWindows = n
		if _, err := New(cfg, m, m, nil); err == nil {
			t.Errorf("NWindows=%d accepted", n)
		}
	}
}

func TestResetState(t *testing.T) {
	c, _ := newCPU(t, DefaultConfig(), enc(t, movImm(isa.O0, 1)))
	run(t, c, 1)
	c.Reset()
	if c.PC() != 0 || c.NPC() != 4 {
		t.Errorf("pc/npc = %#x/%#x", c.PC(), c.NPC())
	}
	if c.PSR()&PSRS == 0 {
		t.Error("not supervisor after reset")
	}
	if c.PSR()&PSRET != 0 {
		t.Error("traps enabled after reset")
	}
	if c.Reg(isa.O0) != 0 {
		t.Error("registers not cleared")
	}
	if c.CWP() != 0 {
		t.Error("CWP not zero")
	}
}

func TestWindowStatePreservedAcrossWindows(t *testing.T) {
	// Values written in one window's locals survive a save/restore
	// round trip.
	c, _ := newCPU(t, DefaultConfig(),
		enc(t, movImm(isa.L0, 0x11)),
		enc(t, isa.Inst{Op: isa.OpSAVE, Rd: isa.G0, Rs1: isa.G0, UseImm: true, Imm: 0}),
		enc(t, movImm(isa.L0, 0x22)),
		enc(t, isa.Inst{Op: isa.OpRESTORE}),
	)
	run(t, c, 4)
	if got := c.Reg(isa.L0); got != 0x11 {
		t.Errorf("%%l0 = %#x after round trip, want 0x11", got)
	}
}

func TestInstructionFetchFaultTraps(t *testing.T) {
	m := newFlat(64)
	c, _ := New(DefaultConfig(), m, m, nil)
	c.psr |= PSRET
	c.SetPC(0x100000) // way past memory
	trapped := uint8(0)
	c.OnTrap = func(tt uint8, pc uint32) { trapped = tt }
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if trapped != TrapIAccess {
		t.Errorf("trap = %#x, want instruction access", trapped)
	}
}
