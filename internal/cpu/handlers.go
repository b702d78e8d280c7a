package cpu

import "liquidarch/internal/isa"

// This file binds each decoded instruction to the function that
// executes it. The binding is made once, when the word is decoded into
// the predecode cache: the entry stores a handler index, and Step and
// dispatchBlock call handlers[e.h] with no per-execution switch on the
// op. The hot ops get one handler per operand form, so the register or
// immediate choice is made at decode as well.
//
// A handler runs one instruction whose fetch cycle is already charged.
// On the normal path it returns nil and leaves the delayed-branch
// target in c.nnpc (the caller preset it to npc+4; control transfers
// overwrite it). errTrapped means the instruction vectored through
// trap and PC is already set; an *ErrorMode means the processor froze.
// Entries hold an index into the handler table rather than a func
// value so that the predecode table stays pointer-free.

type handler func(c *CPU, in *isa.Inst) error

// handlers is indexed by a predecode entry's handler index; its 256
// slots let a uint8 index it with no bounds check. bindings maps an op
// to the index of its handler for the register form [0] and the
// immediate form [1] of its second operand. Index 0 traps as illegal,
// so an op nothing binds (OpInvalid) cannot run. init fills both
// tables; nothing writes them after.
var (
	handlers [256]handler
	bindings [256][2]uint8

	hMOVr, hMOVi, hBA uint8 // the shapes bind specialises beyond the operand form
)

func init() {
	n := 0
	add := func(h handler) uint8 {
		handlers[n] = h
		n++
		return uint8(n - 1)
	}
	one := func(op isa.Op, h handler) { // one handler serves both forms
		i := add(h)
		bindings[op] = [2]uint8{i, i}
	}
	two := func(op isa.Op, reg, imm handler) { bindings[op] = [2]uint8{add(reg), add(imm)} }

	add(opIllegal)
	one(isa.OpCALL, opCALL)
	one(isa.OpSETHI, opSETHI)
	one(isa.OpBicc, opBicc)
	one(isa.OpUNIMP, opIllegal)
	one(isa.OpJMPL, opJMPL)
	one(isa.OpRETT, opRETT)
	one(isa.OpTicc, opTicc)
	one(isa.OpSAVE, opSAVE)
	one(isa.OpRESTORE, opRESTORE)
	one(isa.OpFLUSH, opFLUSH)
	one(isa.OpRDY, opRDY)
	one(isa.OpRDPSR, opRDPSR)
	one(isa.OpRDWIM, opRDWIM)
	one(isa.OpRDTBR, opRDTBR)
	one(isa.OpWRY, opWRY)
	one(isa.OpWRPSR, opWRPSR)
	one(isa.OpWRWIM, opWRWIM)
	one(isa.OpWRTBR, opWRTBR)
	one(isa.OpLQMAC, opLQMAC)

	two(isa.OpADD, addR, addI)
	one(isa.OpADDcc, opADDcc)
	two(isa.OpSUB, subR, subI)
	two(isa.OpSUBcc, subccR, subccI)
	two(isa.OpAND, andR, andI)
	one(isa.OpANDcc, opANDcc)
	two(isa.OpOR, orR, orI)
	one(isa.OpORcc, opORcc)
	two(isa.OpXOR, xorR, xorI)
	one(isa.OpXORcc, opXORcc)
	two(isa.OpSLL, sllR, sllI)
	two(isa.OpSRL, srlR, srlI)
	two(isa.OpSRA, sraR, sraI)
	one(isa.OpADDX, opADDX)
	one(isa.OpADDXcc, opADDXcc)
	one(isa.OpSUBX, opSUBX)
	one(isa.OpSUBXcc, opSUBXcc)
	one(isa.OpANDN, opANDN)
	one(isa.OpANDNcc, opANDNcc)
	one(isa.OpORN, opORN)
	one(isa.OpORNcc, opORNcc)
	one(isa.OpXNOR, opXNOR)
	one(isa.OpXNORcc, opXNORcc)
	one(isa.OpUMUL, opUMUL)
	one(isa.OpUMULcc, opUMULcc)
	one(isa.OpSMUL, opSMUL)
	one(isa.OpSMULcc, opSMULcc)
	one(isa.OpMULScc, opMULScc)
	one(isa.OpUDIV, opUDIV)
	one(isa.OpUDIVcc, opUDIVcc)
	one(isa.OpSDIV, opSDIV)
	one(isa.OpSDIVcc, opSDIVcc)

	two(isa.OpLD, ldR, ldI)
	two(isa.OpST, stR, stI)
	one(isa.OpLDUB, opLDUB)
	one(isa.OpLDUH, opLDUH)
	one(isa.OpLDSB, opLDSB)
	one(isa.OpLDSH, opLDSH)
	one(isa.OpLDD, opLDD)
	one(isa.OpSTB, opSTB)
	one(isa.OpSTH, opSTH)
	one(isa.OpSTD, opSTD)
	one(isa.OpLDSTUB, opLDSTUB)
	one(isa.OpSWAP, opSWAP)

	hMOVr, hMOVi, hBA = add(movR), add(movI), add(opBA)
}

// bind chooses the handler for a decoded instruction. Beyond the
// operand form it specialises the two commonest shapes: mov (OR from
// %g0) and the unconditional, unannulled branch.
func bind(in *isa.Inst) uint8 {
	switch {
	case in.Op == isa.OpOR && in.Rs1 == isa.G0 && in.UseImm:
		return hMOVi
	case in.Op == isa.OpOR && in.Rs1 == isa.G0:
		return hMOVr
	case in.Op == isa.OpBicc && in.Cond == isa.CondA && !in.Annul:
		return hBA
	case in.UseImm:
		return bindings[in.Op][1]
	}
	return bindings[in.Op][0]
}

// op2 is the second operand of a format-3 instruction whose handler
// serves both forms.
func (c *CPU) op2(in *isa.Inst) uint32 {
	if in.UseImm {
		return uint32(in.Imm)
	}
	return c.Reg(in.Rs2)
}

func opIllegal(c *CPU, _ *isa.Inst) error { return c.takeTrap(TrapIllegalInst) }

// Control transfer and state registers.

func opCALL(c *CPU, in *isa.Inst) error {
	c.SetReg(isa.O7, c.pc)
	c.nnpc = c.pc + uint32(in.Imm)*4
	c.Cycles += uint64(c.cfg.Timing.Jmpl)
	return nil
}

func opSETHI(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, uint32(in.Imm)<<10)
	return nil
}

func opBA(c *CPU, in *isa.Inst) error {
	c.stats.Branches++
	c.stats.Taken++
	c.nnpc = c.pc + uint32(in.Imm)*4
	c.Cycles += uint64(c.cfg.Timing.Branch)
	return nil
}

func opBicc(c *CPU, in *isa.Inst) error {
	c.stats.Branches++
	if c.condTrue(in.Cond) {
		c.stats.Taken++
		c.nnpc = c.pc + uint32(in.Imm)*4
		c.Cycles += uint64(c.cfg.Timing.Branch)
		// BA,a annuls its delay slot even though taken.
		if in.Cond == isa.CondA && in.Annul {
			c.annul = true
		}
	} else if in.Annul {
		c.annul = true
	}
	return nil
}

func opJMPL(c *CPU, in *isa.Inst) error {
	target := c.Reg(in.Rs1) + c.op2(in)
	if target&3 != 0 {
		return c.takeTrap(TrapAlignment)
	}
	c.SetReg(in.Rd, c.pc)
	c.nnpc = target
	c.Cycles += uint64(c.cfg.Timing.Jmpl)
	return nil
}

// opRETT returns from a trap: increment CWP (underflow here is fatal:
// ET=0), restore S from PS, re-enable traps, jump.
func opRETT(c *CPU, in *isa.Inst) error {
	target := c.Reg(in.Rs1) + c.op2(in)
	if c.psr&PSRET != 0 {
		return c.takeTrap(TrapIllegalInst)
	}
	if target&3 != 0 {
		return &ErrorMode{TT: TrapAlignment, PC: c.pc}
	}
	newCWP := (c.cwp() + 1) % c.nwin
	if c.wim&(1<<uint(newCWP)) != 0 {
		return &ErrorMode{TT: TrapWindowUnderflow, PC: c.pc}
	}
	c.setCWP(newCWP)
	if c.psr&PSRPS != 0 {
		c.psr |= PSRS
	} else {
		c.psr &^= PSRS
	}
	c.psr |= PSRET
	c.nnpc = target
	c.Cycles += uint64(c.cfg.Timing.Jmpl)
	return nil
}

func opTicc(c *CPU, in *isa.Inst) error {
	if c.condTrue(in.Cond) {
		n := (c.Reg(in.Rs1) + c.op2(in)) & 0x7F
		return c.takeTrap(uint8(TrapSoftwareBase + n))
	}
	return nil
}

func opSAVE(c *CPU, in *isa.Inst) error {
	newCWP := (c.cwp() + c.nwin - 1) % c.nwin
	if c.wim&(1<<uint(newCWP)) != 0 {
		return c.takeTrap(TrapWindowOverflow)
	}
	res := c.Reg(in.Rs1) + c.op2(in) // computed in the old window
	c.setCWP(newCWP)
	c.SetReg(in.Rd, res) // written in the new window
	return nil
}

func opRESTORE(c *CPU, in *isa.Inst) error {
	newCWP := (c.cwp() + 1) % c.nwin
	if c.wim&(1<<uint(newCWP)) != 0 {
		return c.takeTrap(TrapWindowUnderflow)
	}
	res := c.Reg(in.Rs1) + c.op2(in)
	c.setCWP(newCWP)
	c.SetReg(in.Rd, res)
	return nil
}

// opFLUSH invalidates the fetch pipeline's predecoded state along with
// the caches: it is the architectural barrier self-modifying code must
// execute.
func opFLUSH(c *CPU, _ *isa.Inst) error {
	c.InvalidatePredecode()
	if c.FlushFn != nil {
		cycles, err := c.FlushFn()
		c.Cycles += uint64(cycles)
		if err != nil {
			return c.takeTrap(TrapDAccess)
		}
	}
	return nil
}

func opRDY(c *CPU, in *isa.Inst) error   { c.SetReg(in.Rd, c.y); return nil }
func opRDPSR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.psr); return nil }
func opRDTBR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.tbr); return nil }

func opRDWIM(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.wim&(1<<uint(c.nwin)-1))
	return nil
}

func opWRY(c *CPU, in *isa.Inst) error {
	c.y = c.Reg(in.Rs1) ^ c.op2(in)
	return nil
}

func opWRPSR(c *CPU, in *isa.Inst) error {
	v := c.Reg(in.Rs1) ^ c.op2(in)
	if int(v&psrCWPMask) >= c.nwin {
		return c.takeTrap(TrapIllegalInst)
	}
	c.psr = psrImplVer | v&^uint32(psrImplVer)
	c.remap()
	return nil
}

func opWRWIM(c *CPU, in *isa.Inst) error {
	c.wim = (c.Reg(in.Rs1) ^ c.op2(in)) & (1<<uint(c.nwin) - 1)
	return nil
}

func opWRTBR(c *CPU, in *isa.Inst) error {
	c.tbr = (c.Reg(in.Rs1) ^ c.op2(in)) & 0xFFFFF000
	return nil
}

func opLQMAC(c *CPU, in *isa.Inst) error {
	if !c.cfg.MAC {
		return c.takeTrap(TrapIllegalInst)
	}
	c.SetReg(in.Rd, c.Reg(in.Rd)+c.Reg(in.Rs1)*c.op2(in))
	return nil
}

// Arithmetic, logical and shift ops specialised on the operand form:
// the R handler reads rs2, the I handler the immediate.

func movR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs2)); return nil }
func movI(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, uint32(in.Imm)); return nil }

func addR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)+c.Reg(in.Rs2)); return nil }
func addI(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)+uint32(in.Imm)); return nil }
func subR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)-c.Reg(in.Rs2)); return nil }
func subI(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)-uint32(in.Imm)); return nil }
func andR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)&c.Reg(in.Rs2)); return nil }
func andI(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)&uint32(in.Imm)); return nil }
func orR(c *CPU, in *isa.Inst) error  { c.SetReg(in.Rd, c.Reg(in.Rs1)|c.Reg(in.Rs2)); return nil }
func orI(c *CPU, in *isa.Inst) error  { c.SetReg(in.Rd, c.Reg(in.Rs1)|uint32(in.Imm)); return nil }
func xorR(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)^c.Reg(in.Rs2)); return nil }
func xorI(c *CPU, in *isa.Inst) error { c.SetReg(in.Rd, c.Reg(in.Rs1)^uint32(in.Imm)); return nil }

func sllR(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)<<(c.Reg(in.Rs2)&31))
	return nil
}

func sllI(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)<<(uint32(in.Imm)&31))
	return nil
}

func srlR(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)>>(c.Reg(in.Rs2)&31))
	return nil
}

func srlI(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)>>(uint32(in.Imm)&31))
	return nil
}

func sraR(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))>>(c.Reg(in.Rs2)&31)))
	return nil
}

func sraI(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, uint32(int32(c.Reg(in.Rs1))>>(uint32(in.Imm)&31)))
	return nil
}

// subcc is cmp, the one condition-code op compiled code leans on; its
// two forms spell the body out because a shared helper would be too
// large to inline.

func subccR(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), c.Reg(in.Rs2)
	r := a - b
	c.setSubICC(a, b, r)
	c.SetReg(in.Rd, r)
	return nil
}

func subccI(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), uint32(in.Imm)
	r := a - b
	c.setSubICC(a, b, r)
	c.SetReg(in.Rd, r)
	return nil
}

// logiccc writes a logical result and sets N and Z from it (V, C = 0).
func (c *CPU) logiccc(in *isa.Inst, r uint32) {
	c.setICC(r, 0, 0)
	c.SetReg(in.Rd, r)
}

// The rarer ALU ops serve both operand forms through op2.

func opANDcc(c *CPU, in *isa.Inst) error  { c.logiccc(in, c.Reg(in.Rs1)&c.op2(in)); return nil }
func opORcc(c *CPU, in *isa.Inst) error   { c.logiccc(in, c.Reg(in.Rs1)|c.op2(in)); return nil }
func opXORcc(c *CPU, in *isa.Inst) error  { c.logiccc(in, c.Reg(in.Rs1)^c.op2(in)); return nil }
func opANDN(c *CPU, in *isa.Inst) error   { c.SetReg(in.Rd, c.Reg(in.Rs1)&^c.op2(in)); return nil }
func opANDNcc(c *CPU, in *isa.Inst) error { c.logiccc(in, c.Reg(in.Rs1)&^c.op2(in)); return nil }
func opORN(c *CPU, in *isa.Inst) error    { c.SetReg(in.Rd, c.Reg(in.Rs1)|^c.op2(in)); return nil }
func opORNcc(c *CPU, in *isa.Inst) error  { c.logiccc(in, c.Reg(in.Rs1)|^c.op2(in)); return nil }
func opXNOR(c *CPU, in *isa.Inst) error   { c.SetReg(in.Rd, ^(c.Reg(in.Rs1) ^ c.op2(in))); return nil }
func opXNORcc(c *CPU, in *isa.Inst) error { c.logiccc(in, ^(c.Reg(in.Rs1) ^ c.op2(in))); return nil }

func opADDcc(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), c.op2(in)
	r := a + b
	c.setAddICC(a, b, r)
	c.SetReg(in.Rd, r)
	return nil
}

func opADDX(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)+c.op2(in)+c.psr>>20&1)
	return nil
}

func opADDXcc(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), c.op2(in)
	r := a + b + c.psr>>20&1
	c.setAddICC(a, b, r)
	c.SetReg(in.Rd, r)
	return nil
}

func opSUBX(c *CPU, in *isa.Inst) error {
	c.SetReg(in.Rd, c.Reg(in.Rs1)-c.op2(in)-c.psr>>20&1)
	return nil
}

func opSUBXcc(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), c.op2(in)
	r := a - b - c.psr>>20&1
	c.setSubICC(a, b, r)
	c.SetReg(in.Rd, r)
	return nil
}

func opUMUL(c *CPU, in *isa.Inst) error   { return c.umul(in, false) }
func opUMULcc(c *CPU, in *isa.Inst) error { return c.umul(in, true) }
func opSMUL(c *CPU, in *isa.Inst) error   { return c.smul(in, false) }
func opSMULcc(c *CPU, in *isa.Inst) error { return c.smul(in, true) }
func opUDIV(c *CPU, in *isa.Inst) error   { return c.udiv(in, false) }
func opUDIVcc(c *CPU, in *isa.Inst) error { return c.udiv(in, true) }
func opSDIV(c *CPU, in *isa.Inst) error   { return c.sdiv(in, false) }
func opSDIVcc(c *CPU, in *isa.Inst) error { return c.sdiv(in, true) }

func (c *CPU) umul(in *isa.Inst, cc bool) error {
	if !c.cfg.MulDiv {
		return c.takeTrap(TrapIllegalInst)
	}
	p := uint64(c.Reg(in.Rs1)) * uint64(c.op2(in))
	c.y = uint32(p >> 32)
	r := uint32(p)
	if cc {
		c.setICC(r, 0, 0)
	}
	c.SetReg(in.Rd, r)
	c.Cycles += uint64(c.cfg.Timing.Mul)
	return nil
}

func (c *CPU) smul(in *isa.Inst, cc bool) error {
	if !c.cfg.MulDiv {
		return c.takeTrap(TrapIllegalInst)
	}
	p := int64(int32(c.Reg(in.Rs1))) * int64(int32(c.op2(in)))
	c.y = uint32(uint64(p) >> 32)
	r := uint32(p)
	if cc {
		c.setICC(r, 0, 0)
	}
	c.SetReg(in.Rd, r)
	c.Cycles += uint64(c.cfg.Timing.Mul)
	return nil
}

// opMULScc is one multiply step (SPARC V8 §B.17).
func opMULScc(c *CPU, in *isa.Inst) error {
	a, b := c.Reg(in.Rs1), c.op2(in)
	op1 := a >> 1
	if (c.psr&PSRNegative != 0) != (c.psr&PSROverflow != 0) {
		op1 |= 1 << 31
	}
	addend := uint32(0)
	if c.y&1 != 0 {
		addend = b
	}
	r := op1 + addend
	c.setAddICC(op1, addend, r)
	c.y = c.y>>1 | a<<31
	c.SetReg(in.Rd, r)
	return nil
}

func (c *CPU) udiv(in *isa.Inst, cc bool) error {
	if !c.cfg.MulDiv {
		return c.takeTrap(TrapIllegalInst)
	}
	a, b := c.Reg(in.Rs1), c.op2(in)
	if b == 0 {
		return c.takeTrap(TrapDivZero)
	}
	q := (uint64(c.y)<<32 | uint64(a)) / uint64(b)
	var v uint32
	if q > 0xFFFFFFFF {
		q, v = 0xFFFFFFFF, 1<<31
	}
	r := uint32(q)
	if cc {
		c.setICC(r, v, 0)
	}
	c.SetReg(in.Rd, r)
	c.Cycles += uint64(c.cfg.Timing.Div)
	return nil
}

func (c *CPU) sdiv(in *isa.Inst, cc bool) error {
	if !c.cfg.MulDiv {
		return c.takeTrap(TrapIllegalInst)
	}
	a, b := c.Reg(in.Rs1), c.op2(in)
	if b == 0 {
		return c.takeTrap(TrapDivZero)
	}
	q := int64(uint64(c.y)<<32|uint64(a)) / int64(int32(b))
	var v uint32
	switch {
	case q > 0x7FFFFFFF:
		q, v = 0x7FFFFFFF, 1<<31
	case q < -0x80000000:
		q, v = -0x80000000, 1<<31
	}
	r := uint32(q)
	if cc {
		c.setICC(r, v, 0)
	}
	c.SetReg(in.Rd, r)
	c.Cycles += uint64(c.cfg.Timing.Div)
	return nil
}
