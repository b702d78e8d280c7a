// Package isa defines the SPARC V8 instruction set as implemented by the
// LEON2 integer unit, plus the Liquid Architecture custom-instruction
// extension space. It provides instruction encoding, decoding and
// disassembly shared by the CPU model, the assembler and the tooling.
//
// Encodings follow The SPARC Architecture Manual, Version 8:
//
//	op=1  format 1: CALL        [op|disp30]
//	op=0  format 2: SETHI/Bicc  [op|rd|op2|imm22] / [op|a|cond|op2|disp22]
//	op=2  format 3: arithmetic  [op|rd|op3|rs1|i|asi/simm13|rs2]
//	op=3  format 3: memory      [op|rd|op3|rs1|i|asi/simm13|rs2]
package isa

import "fmt"

// Reg is a SPARC integer register number in the current window (0-31).
// 0-7 are globals, 8-15 outs, 16-23 locals, 24-31 ins.
type Reg uint8

// Well-known registers.
const (
	G0 Reg = 0 // always reads zero
	G1 Reg = 1
	O0 Reg = 8
	O6 Reg = 14 // %sp
	O7 Reg = 15 // call return address
	L0 Reg = 16
	L1 Reg = 17
	L2 Reg = 18
	I0 Reg = 24
	I6 Reg = 30 // %fp
	I7 Reg = 31
	SP     = O6
	FP     = I6
)

var regNames = [32]string{
	"%g0", "%g1", "%g2", "%g3", "%g4", "%g5", "%g6", "%g7",
	"%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%sp", "%o7",
	"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7",
	"%i0", "%i1", "%i2", "%i3", "%i4", "%i5", "%fp", "%i7",
}

// Name returns the conventional assembly name of r (%g0 … %i7, with %sp
// and %fp for o6/i6).
func (r Reg) Name() string {
	if r > 31 {
		return fmt.Sprintf("%%r%d", uint8(r))
	}
	return regNames[r]
}

// Cond is a Bicc/Ticc condition code (the 4-bit cond field).
type Cond uint8

// Branch conditions, in encoding order.
const (
	CondN   Cond = 0x0 // never
	CondE   Cond = 0x1 // equal (Z)
	CondLE  Cond = 0x2 // less or equal
	CondL   Cond = 0x3 // less
	CondLEU Cond = 0x4 // less or equal unsigned
	CondCS  Cond = 0x5 // carry set (less unsigned)
	CondNEG Cond = 0x6 // negative
	CondVS  Cond = 0x7 // overflow set
	CondA   Cond = 0x8 // always
	CondNE  Cond = 0x9 // not equal
	CondG   Cond = 0xA // greater
	CondGE  Cond = 0xB // greater or equal
	CondGU  Cond = 0xC // greater unsigned
	CondCC  Cond = 0xD // carry clear (greater or equal unsigned)
	CondPOS Cond = 0xE // positive
	CondVC  Cond = 0xF // overflow clear
)

var condNames = [16]string{
	"n", "e", "le", "l", "leu", "cs", "neg", "vs",
	"a", "ne", "g", "ge", "gu", "cc", "pos", "vc",
}

// Name returns the condition suffix used in mnemonics ("e", "ne", …).
func (c Cond) Name() string { return condNames[c&0xF] }

// Op identifies a decoded instruction operation.
type Op uint8

// Instruction operations. The order groups by format; metadata lives in
// opInfo below.
const (
	OpInvalid Op = iota

	// Format 1.
	OpCALL

	// Format 2.
	OpSETHI
	OpBicc
	OpUNIMP

	// Format 3, op=2: logical and arithmetic.
	OpADD
	OpADDcc
	OpADDX
	OpADDXcc
	OpSUB
	OpSUBcc
	OpSUBX
	OpSUBXcc
	OpAND
	OpANDcc
	OpANDN
	OpANDNcc
	OpOR
	OpORcc
	OpORN
	OpORNcc
	OpXOR
	OpXORcc
	OpXNOR
	OpXNORcc
	OpSLL
	OpSRL
	OpSRA
	OpUMUL
	OpUMULcc
	OpSMUL
	OpSMULcc
	OpUDIV
	OpUDIVcc
	OpSDIV
	OpSDIVcc
	OpMULScc

	// Format 3, op=2: state registers and control transfer.
	OpRDY
	OpRDPSR
	OpRDWIM
	OpRDTBR
	OpWRY
	OpWRPSR
	OpWRWIM
	OpWRTBR
	OpJMPL
	OpRETT
	OpTicc
	OpFLUSH
	OpSAVE
	OpRESTORE

	// Liquid Architecture custom extension (CPop1 space, §2 of the
	// paper: "new instructions to the SPARC base instruction set").
	// rd := rd + rs1*rs2, single cycle when the MAC unit is configured.
	OpLQMAC

	// Format 3, op=3: loads and stores.
	OpLD
	OpLDUB
	OpLDUH
	OpLDSB
	OpLDSH
	OpLDD
	OpST
	OpSTB
	OpSTH
	OpSTD
	OpLDSTUB
	OpSWAP

	numOps
)

// Class describes how an Op is encoded and which operands it carries.
type Class uint8

// Instruction classes.
const (
	ClassCall   Class = iota // format 1: disp30
	ClassSethi               // format 2: rd, imm22
	ClassBranch              // format 2: annul, cond, disp22
	ClassUnimp               // format 2: const22
	ClassALU                 // format 3 op=2: rd, rs1, rs2/simm13
	ClassLoad                // format 3 op=3: rd, [rs1+rs2/simm13]
	ClassStore               // format 3 op=3: rd, [rs1+rs2/simm13]
)

type opInfo struct {
	name  string
	class Class
	op3   uint8 // op3 field for format 3, op2 field for format 2
	op    uint8 // major op (0-3)
}

var opTable = [numOps]opInfo{
	OpInvalid: {"invalid", ClassUnimp, 0, 0},
	OpCALL:    {"call", ClassCall, 0, 1},
	OpSETHI:   {"sethi", ClassSethi, 0x4, 0},
	OpBicc:    {"b", ClassBranch, 0x2, 0},
	OpUNIMP:   {"unimp", ClassUnimp, 0x0, 0},

	OpADD:     {"add", ClassALU, 0x00, 2},
	OpAND:     {"and", ClassALU, 0x01, 2},
	OpOR:      {"or", ClassALU, 0x02, 2},
	OpXOR:     {"xor", ClassALU, 0x03, 2},
	OpSUB:     {"sub", ClassALU, 0x04, 2},
	OpANDN:    {"andn", ClassALU, 0x05, 2},
	OpORN:     {"orn", ClassALU, 0x06, 2},
	OpXNOR:    {"xnor", ClassALU, 0x07, 2},
	OpADDX:    {"addx", ClassALU, 0x08, 2},
	OpUMUL:    {"umul", ClassALU, 0x0A, 2},
	OpSMUL:    {"smul", ClassALU, 0x0B, 2},
	OpSUBX:    {"subx", ClassALU, 0x0C, 2},
	OpUDIV:    {"udiv", ClassALU, 0x0E, 2},
	OpSDIV:    {"sdiv", ClassALU, 0x0F, 2},
	OpADDcc:   {"addcc", ClassALU, 0x10, 2},
	OpANDcc:   {"andcc", ClassALU, 0x11, 2},
	OpORcc:    {"orcc", ClassALU, 0x12, 2},
	OpXORcc:   {"xorcc", ClassALU, 0x13, 2},
	OpSUBcc:   {"subcc", ClassALU, 0x14, 2},
	OpANDNcc:  {"andncc", ClassALU, 0x15, 2},
	OpORNcc:   {"orncc", ClassALU, 0x16, 2},
	OpXNORcc:  {"xnorcc", ClassALU, 0x17, 2},
	OpADDXcc:  {"addxcc", ClassALU, 0x18, 2},
	OpUMULcc:  {"umulcc", ClassALU, 0x1A, 2},
	OpSMULcc:  {"smulcc", ClassALU, 0x1B, 2},
	OpSUBXcc:  {"subxcc", ClassALU, 0x1C, 2},
	OpUDIVcc:  {"udivcc", ClassALU, 0x1E, 2},
	OpSDIVcc:  {"sdivcc", ClassALU, 0x1F, 2},
	OpMULScc:  {"mulscc", ClassALU, 0x24, 2},
	OpSLL:     {"sll", ClassALU, 0x25, 2},
	OpSRL:     {"srl", ClassALU, 0x26, 2},
	OpSRA:     {"sra", ClassALU, 0x27, 2},
	OpRDY:     {"rd", ClassALU, 0x28, 2},
	OpRDPSR:   {"rd", ClassALU, 0x29, 2},
	OpRDWIM:   {"rd", ClassALU, 0x2A, 2},
	OpRDTBR:   {"rd", ClassALU, 0x2B, 2},
	OpWRY:     {"wr", ClassALU, 0x30, 2},
	OpWRPSR:   {"wr", ClassALU, 0x31, 2},
	OpWRWIM:   {"wr", ClassALU, 0x32, 2},
	OpWRTBR:   {"wr", ClassALU, 0x33, 2},
	OpLQMAC:   {"lqmac", ClassALU, 0x36, 2},
	OpJMPL:    {"jmpl", ClassALU, 0x38, 2},
	OpRETT:    {"rett", ClassALU, 0x39, 2},
	OpTicc:    {"t", ClassALU, 0x3A, 2},
	OpFLUSH:   {"flush", ClassALU, 0x3B, 2},
	OpSAVE:    {"save", ClassALU, 0x3C, 2},
	OpRESTORE: {"restore", ClassALU, 0x3D, 2},

	OpLD:     {"ld", ClassLoad, 0x00, 3},
	OpLDUB:   {"ldub", ClassLoad, 0x01, 3},
	OpLDUH:   {"lduh", ClassLoad, 0x02, 3},
	OpLDD:    {"ldd", ClassLoad, 0x03, 3},
	OpST:     {"st", ClassStore, 0x04, 3},
	OpSTB:    {"stb", ClassStore, 0x05, 3},
	OpSTH:    {"sth", ClassStore, 0x06, 3},
	OpSTD:    {"std", ClassStore, 0x07, 3},
	OpLDSB:   {"ldsb", ClassLoad, 0x09, 3},
	OpLDSH:   {"ldsh", ClassLoad, 0x0A, 3},
	OpLDSTUB: {"ldstub", ClassLoad, 0x0D, 3},
	OpSWAP:   {"swap", ClassLoad, 0x0F, 3},
}

// Name returns the base mnemonic of the operation (without condition
// suffixes for branches and traps).
func (o Op) Name() string {
	if o >= numOps {
		return "invalid"
	}
	return opTable[o].name
}

// Class returns the encoding class of the operation.
func (o Op) Class() Class {
	if o >= numOps {
		return ClassUnimp
	}
	return opTable[o].class
}

// Inst is a decoded instruction. Fields not meaningful for the
// operation's class are zero.
type Inst struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int32 // simm13, imm22, or word-displacement for CALL/Bicc
	UseImm bool  // i bit: use Imm instead of Rs2
	Annul  bool  // branch annul bit
	Cond   Cond  // Bicc/Ticc condition
	Raw    uint32
}

// signExtend returns the low n bits of v sign-extended to 32 bits.
func signExtend(v uint32, n uint) int32 {
	shift := 32 - n
	return int32(v<<shift) >> shift
}

// reverse lookup tables built at init: op3 → Op for the two format-3
// major opcodes, and op2 → Op for format 2.
var (
	aluOps [64]Op
	memOps [64]Op
)

func init() {
	for op := Op(1); op < numOps; op++ {
		info := opTable[op]
		switch {
		case info.op == 2:
			aluOps[info.op3] = op
		case info.op == 3:
			memOps[info.op3] = op
		}
	}
}

// Decode decodes a 32-bit instruction word. An unrecognised encoding
// yields an Inst with Op == OpInvalid and a non-nil error; the CPU model
// maps that to an illegal_instruction trap.
func Decode(w uint32) (Inst, error) {
	in := Inst{Raw: w}
	op := w >> 30
	switch op {
	case 1: // CALL
		in.Op = OpCALL
		in.Imm = signExtend(w&0x3FFFFFFF, 30)
		return in, nil
	case 0: // format 2
		op2 := (w >> 22) & 0x7
		switch op2 {
		case 0x4: // SETHI
			in.Op = OpSETHI
			in.Rd = Reg((w >> 25) & 0x1F)
			in.Imm = int32(w & 0x3FFFFF)
			return in, nil
		case 0x2: // Bicc
			in.Op = OpBicc
			in.Annul = w&(1<<29) != 0
			in.Cond = Cond((w >> 25) & 0xF)
			in.Imm = signExtend(w&0x3FFFFF, 22)
			return in, nil
		case 0x0: // UNIMP
			in.Op = OpUNIMP
			in.Imm = int32(w & 0x3FFFFF)
			return in, nil
		}
		return in, fmt.Errorf("isa: unimplemented format-2 op2 %#x in %#08x", op2, w)
	default: // format 3
		op3 := (w >> 19) & 0x3F
		var o Op
		if op == 2 {
			o = aluOps[op3]
		} else {
			o = memOps[op3]
		}
		if o == OpInvalid {
			return in, fmt.Errorf("isa: unimplemented op3 %#x (op=%d) in %#08x", op3, op, w)
		}
		in.Op = o
		in.Rs1 = Reg((w >> 14) & 0x1F)
		if o == OpTicc {
			// The rd field holds the trap condition, not a register.
			in.Cond = Cond((w >> 25) & 0xF)
		} else {
			in.Rd = Reg((w >> 25) & 0x1F)
		}
		if w&(1<<13) != 0 {
			in.UseImm = true
			in.Imm = signExtend(w&0x1FFF, 13)
		} else {
			in.Rs2 = Reg(w & 0x1F)
		}
		// The RD-state-register group architecturally ignores its
		// source operand fields (rs1≠0 would select unimplemented
		// ASRs); canonicalize them away.
		switch o {
		case OpRDY, OpRDPSR, OpRDWIM, OpRDTBR:
			in.Rs1, in.Rs2, in.Imm, in.UseImm = 0, 0, 0, false
		case OpWRY, OpWRPSR, OpWRWIM, OpWRTBR, OpRETT, OpFLUSH:
			// The rd field selects ASRs for WRY and is reserved for
			// RETT/FLUSH; only rd=0 is implemented.
			in.Rd = 0
		}
		return in, nil
	}
}

// Encode produces the 32-bit instruction word for in. It validates
// immediate ranges and returns an error for values that do not fit.
func Encode(in Inst) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= numOps {
		return 0, fmt.Errorf("isa: cannot encode invalid op %d", in.Op)
	}
	info := opTable[in.Op]
	switch info.class {
	case ClassCall:
		if in.Imm < -(1<<29) || in.Imm >= 1<<29 {
			return 0, fmt.Errorf("isa: call displacement %d out of range", in.Imm)
		}
		return 1<<30 | uint32(in.Imm)&0x3FFFFFFF, nil
	case ClassSethi:
		if in.Imm < 0 || in.Imm >= 1<<22 {
			return 0, fmt.Errorf("isa: sethi immediate %#x out of range", in.Imm)
		}
		return uint32(in.Rd)<<25 | 0x4<<22 | uint32(in.Imm), nil
	case ClassBranch:
		if in.Imm < -(1<<21) || in.Imm >= 1<<21 {
			return 0, fmt.Errorf("isa: branch displacement %d out of range", in.Imm)
		}
		w := uint32(in.Cond)<<25 | 0x2<<22 | uint32(in.Imm)&0x3FFFFF
		if in.Annul {
			w |= 1 << 29
		}
		return w, nil
	case ClassUnimp:
		return uint32(in.Imm) & 0x3FFFFF, nil
	default: // format 3
		w := uint32(info.op)<<30 | uint32(in.Rd)<<25 | uint32(info.op3)<<19 | uint32(in.Rs1)<<14
		if in.Op == OpTicc {
			w = uint32(info.op)<<30 | uint32(in.Cond)<<25 | uint32(info.op3)<<19 | uint32(in.Rs1)<<14
		}
		if in.UseImm {
			if in.Imm < -4096 || in.Imm > 4095 {
				return 0, fmt.Errorf("isa: simm13 %d out of range", in.Imm)
			}
			w |= 1<<13 | uint32(in.Imm)&0x1FFF
		} else {
			w |= uint32(in.Rs2)
		}
		return w, nil
	}
}

// NOP is the canonical no-operation encoding (sethi 0, %g0).
const NOP uint32 = 0x01000000
