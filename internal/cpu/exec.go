package cpu

import (
	"liquidarch/internal/amba"
	"liquidarch/internal/isa"
)

const iccMask = PSRNegative | PSRZero | PSROverflow | PSRCarry

// setICC replaces the icc flags: N and Z from the result r, V and C
// from bit 31 of v and cy.
func (c *CPU) setICC(r, v, cy uint32) {
	f := r&(1<<31)>>8 | v>>31<<21 | cy>>31<<20
	if r == 0 {
		f |= PSRZero
	}
	c.psr = c.psr&^iccMask | f
}

// setAddICC sets the icc flags for r = a + b (+ carry in, which r
// already includes): bit 31 of the signed-overflow and carry-out
// terms of a full adder.
func (c *CPU) setAddICC(a, b, r uint32) {
	c.setICC(r, ^(a^b)&(a^r), a&b|(a|b)&^r)
}

// setSubICC sets the icc flags for r = a - b (- borrow in, which r
// already includes); C is the borrow out.
func (c *CPU) setSubICC(a, b, r uint32) {
	c.setICC(r, (a^b)&(a^r), ^a&b|^(a^b)&r)
}

// condTaken has bit i of entry cond set when cond holds for the icc
// value i (the PSR's bits 23:20, N Z V C).
var condTaken = func() (t [16]uint16) {
	for cond := range t {
		for icc := 0; icc < 16; icc++ {
			n, z, v, cy := icc&8 != 0, icc&4 != 0, icc&2 != 0, icc&1 != 0
			var ok bool
			switch isa.Cond(cond) {
			case isa.CondA:
				ok = true
			case isa.CondN:
				ok = false
			case isa.CondE:
				ok = z
			case isa.CondNE:
				ok = !z
			case isa.CondL:
				ok = n != v
			case isa.CondGE:
				ok = n == v
			case isa.CondLE:
				ok = z || n != v
			case isa.CondG:
				ok = !z && n == v
			case isa.CondCS:
				ok = cy
			case isa.CondCC:
				ok = !cy
			case isa.CondLEU:
				ok = cy || z
			case isa.CondGU:
				ok = !cy && !z
			case isa.CondNEG:
				ok = n
			case isa.CondPOS:
				ok = !n
			case isa.CondVS:
				ok = v
			case isa.CondVC:
				ok = !v
			}
			if ok {
				t[cond] |= 1 << icc
			}
		}
	}
	return t
}()

// condTrue evaluates a Bicc/Ticc condition against the icc flags.
func (c *CPU) condTrue(cond isa.Cond) bool {
	return condTaken[cond&15]>>(c.psr>>20&15)&1 != 0
}

// predecodeInvalidateStore drops the predecode entry covering a
// stored-to word, so self-modifying code that writes over an
// instruction is re-decoded on its next fetch (the I-cache itself still
// requires the architectural FLUSH, exactly as on the hardware). One
// compare per store keeps the hot loop flat.
func (c *CPU) predecodeInvalidateStore(addr uint32) {
	e := &c.predecode[(addr>>2)&predecodeMask]
	if e.tag == addr&^3+1 {
		e.tag = 0
	}
}

// Memory instructions. Each checks alignment, reports the access to
// the OnMem hook, then performs its reads and writes in order; a bus
// error on any of them traps as a data access exception after its
// cycles land.

// memStart is the common head of a memory instruction: the alignment
// trap (nil when aligned) and the access hook.
func (c *CPU) memStart(addr uint32, size amba.Size, write bool) error {
	if addr&(uint32(size)-1) != 0 { // sizes are powers of two
		return c.takeTrap(TrapAlignment)
	}
	if c.OnMem != nil {
		c.OnMem(addr, size, write)
	}
	return nil
}

// load is a single-access load of size at addr; it returns the loaded
// value, or the trap outcome. It and store spell memStart out, so the
// hot word forms make one call below their handler.
func (c *CPU) load(addr uint32, size amba.Size) (uint32, error) {
	if addr&(uint32(size)-1) != 0 {
		return 0, c.takeTrap(TrapAlignment)
	}
	if c.OnMem != nil {
		c.OnMem(addr, size, false)
	}
	v, cycles, err := c.dmem.Read(addr, size)
	c.Cycles += uint64(cycles + c.cfg.Timing.Load)
	if err != nil {
		return 0, c.takeTrap(TrapDAccess)
	}
	c.stats.Loads++
	return v, nil
}

// store is a single-access store of rd's low size bytes at addr.
func (c *CPU) store(in *isa.Inst, addr uint32, size amba.Size) error {
	if addr&(uint32(size)-1) != 0 {
		return c.takeTrap(TrapAlignment)
	}
	if c.OnMem != nil {
		c.OnMem(addr, size, true)
	}
	cycles, err := c.dmem.Write(addr, c.Reg(in.Rd), size)
	c.Cycles += uint64(cycles + c.cfg.Timing.Store)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	c.stats.Stores++
	c.predecodeInvalidateStore(addr)
	return nil
}

func stR(c *CPU, in *isa.Inst) error { return c.store(in, c.Reg(in.Rs1)+c.Reg(in.Rs2), amba.SizeWord) }
func stI(c *CPU, in *isa.Inst) error { return c.store(in, c.Reg(in.Rs1)+uint32(in.Imm), amba.SizeWord) }

func ldR(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+c.Reg(in.Rs2), amba.SizeWord)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, v)
	return nil
}

func ldI(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+uint32(in.Imm), amba.SizeWord)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, v)
	return nil
}

func opSTB(c *CPU, in *isa.Inst) error {
	return c.store(in, c.Reg(in.Rs1)+c.op2(in), amba.SizeByte)
}

func opSTH(c *CPU, in *isa.Inst) error {
	return c.store(in, c.Reg(in.Rs1)+c.op2(in), amba.SizeHalf)
}

func opLDUB(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+c.op2(in), amba.SizeByte)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, v)
	return nil
}

func opLDUH(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+c.op2(in), amba.SizeHalf)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, v)
	return nil
}

func opLDSB(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+c.op2(in), amba.SizeByte)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, uint32(int32(v<<24)>>24))
	return nil
}

func opLDSH(c *CPU, in *isa.Inst) error {
	v, err := c.load(c.Reg(in.Rs1)+c.op2(in), amba.SizeHalf)
	if err != nil {
		return err
	}
	c.SetReg(in.Rd, uint32(int32(v<<16)>>16))
	return nil
}

func opLDD(c *CPU, in *isa.Inst) error {
	addr := c.Reg(in.Rs1) + c.op2(in)
	if addr&7 != 0 {
		return c.takeTrap(TrapAlignment)
	}
	if in.Rd&1 != 0 {
		return c.takeTrap(TrapIllegalInst)
	}
	if err := c.memStart(addr, amba.SizeWord, false); err != nil {
		return err
	}
	lo, cy1, err := c.dmem.Read(addr, amba.SizeWord)
	c.Cycles += uint64(cy1 + c.cfg.Timing.Load)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	hi, cy2, err := c.dmem.Read(addr+4, amba.SizeWord)
	c.Cycles += uint64(cy2)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	c.stats.Loads += 2
	c.SetReg(in.Rd, lo)
	c.SetReg(in.Rd+1, hi)
	return nil
}

func opSTD(c *CPU, in *isa.Inst) error {
	addr := c.Reg(in.Rs1) + c.op2(in)
	if addr&7 != 0 {
		return c.takeTrap(TrapAlignment)
	}
	if in.Rd&1 != 0 {
		return c.takeTrap(TrapIllegalInst)
	}
	if err := c.memStart(addr, amba.SizeWord, true); err != nil {
		return err
	}
	cy1, err := c.dmem.Write(addr, c.Reg(in.Rd), amba.SizeWord)
	c.Cycles += uint64(cy1 + c.cfg.Timing.Store)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	cy2, err := c.dmem.Write(addr+4, c.Reg(in.Rd+1), amba.SizeWord)
	c.Cycles += uint64(cy2)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	c.stats.Stores += 2
	c.predecodeInvalidateStore(addr)
	c.predecodeInvalidateStore(addr + 4)
	return nil
}

// opSWAP and opLDSTUB are the atomic load-stores: a read, then a write
// of the same location.
func opSWAP(c *CPU, in *isa.Inst) error {
	addr := c.Reg(in.Rs1) + c.op2(in)
	if err := c.memStart(addr, amba.SizeWord, false); err != nil {
		return err
	}
	v, cy1, err := c.dmem.Read(addr, amba.SizeWord)
	c.Cycles += uint64(cy1 + c.cfg.Timing.Load)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	cy2, err := c.dmem.Write(addr, c.Reg(in.Rd), amba.SizeWord)
	c.Cycles += uint64(cy2)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	c.stats.Loads++
	c.stats.Stores++
	c.SetReg(in.Rd, v)
	c.predecodeInvalidateStore(addr)
	return nil
}

func opLDSTUB(c *CPU, in *isa.Inst) error {
	addr := c.Reg(in.Rs1) + c.op2(in)
	if err := c.memStart(addr, amba.SizeByte, false); err != nil {
		return err
	}
	v, cy1, err := c.dmem.Read(addr, amba.SizeByte)
	c.Cycles += uint64(cy1 + c.cfg.Timing.Load)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	cy2, err := c.dmem.Write(addr, 0xFF, amba.SizeByte)
	c.Cycles += uint64(cy2)
	if err != nil {
		return c.takeTrap(TrapDAccess)
	}
	c.stats.Loads++
	c.stats.Stores++
	c.SetReg(in.Rd, v)
	c.predecodeInvalidateStore(addr)
	return nil
}
