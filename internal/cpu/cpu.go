// Package cpu models the LEON2 integer unit: a SPARC V8 processor with
// register windows, the full integer instruction set, traps and
// interrupts, and LEON-like per-instruction cycle accounting. It is the
// "LEON SPARC-compatible Processor" block of Fig. 3 in the paper.
//
// The model is a functional instruction-set simulator with a timing
// overlay rather than an RTL pipeline: each instruction charges its
// LEON2 base cost plus whatever the memory hierarchy reports for
// instruction fetch and data access. The experiments in the paper
// measure whole-program clock-cycle counts, which this accounting
// reproduces.
package cpu

import (
	"errors"
	"fmt"

	"liquidarch/internal/amba"
	"liquidarch/internal/isa"
)

// PSR bit positions and fields (SPARC V8 §4.2).
const (
	PSRCarry    = 1 << 20
	PSROverflow = 1 << 21
	PSRZero     = 1 << 22
	PSRNegative = 1 << 23
	PSRET       = 1 << 5 // enable traps
	PSRPS       = 1 << 6 // previous supervisor
	PSRS        = 1 << 7 // supervisor
	psrPILShift = 8
	psrPILMask  = 0xF << psrPILShift
	psrCWPMask  = 0x1F
	// impl/ver identify the core; LEON2 reports impl=0xF, ver=3.
	psrImplVer = 0xF3 << 24
)

// Trap types (SPARC V8 table 7-1 subset).
const (
	TrapReset           = 0x00
	TrapIAccess         = 0x01
	TrapIllegalInst     = 0x02
	TrapPrivilegedInst  = 0x03
	TrapWindowOverflow  = 0x05
	TrapWindowUnderflow = 0x06
	TrapAlignment       = 0x07
	TrapDAccess         = 0x09
	TrapDivZero         = 0x2A
	TrapInterruptBase   = 0x10 // + interrupt level 1-15
	TrapSoftwareBase    = 0x80 // + Ticc number 0-127
)

// Memory is the CPU-facing interface of the instruction and data paths
// (normally the two caches). Cycle counts include the access itself.
type Memory interface {
	Read(addr uint32, size amba.Size) (val uint32, cycles int, err error)
	Write(addr uint32, val uint32, size amba.Size) (cycles int, err error)
}

// IFetcher is the fast instruction-fetch path: a concrete provider of
// aligned word fetches that bypasses the general Memory interface (and
// its per-size dispatch) on the Step hot loop. cache.Cache implements
// it; hit reports whether the word came from a resident line of an
// enabled cache. Cycle accounting must match Memory.Read exactly.
type IFetcher interface {
	FetchWord(addr uint32) (word uint32, cycles int, hit bool, err error)
}

// LineFetcher extends IFetcher with the superblock dispatch surface:
// PeekLine exposes a resident instruction-cache line when (and only
// when) per-word fetches from it are pure 1-cycle hits with no
// replacement-state side effects, and AddFetchHits settles the bulk hit
// accounting afterwards. cache.Cache implements it; StepN falls back to
// the single-step interpreter when the fetch path doesn't.
type LineFetcher interface {
	IFetcher
	PeekLine(addr uint32) ([]byte, bool)
	AddFetchHits(n uint64)
	FetchCounts() (hits, misses uint64)
}

// Memory-event bits reported through EventFlags. The memory system (the
// SoC's cached/uncached mux) sets them as the CPU's own loads and
// stores land; the superblock dispatcher consumes them.
const (
	// MemEventDevice: a device (APB) access happened. Device accesses
	// can raise or mask interrupts and re-arm timers, so the dispatcher
	// ends the block and the SoC recomputes its event horizon.
	MemEventDevice uint32 = 1 << 0
	// MemEventCached: a cached data access happened. Cache state
	// (ages, fills, dirtiness) is not captured by the spin fingerprint,
	// so iterations touching the data cache never fast-forward.
	MemEventCached uint32 = 1 << 1
)

// IRQSource provides external interrupt requests (the APB interrupt
// controller).
type IRQSource interface {
	// Pending returns the highest pending unmasked interrupt level
	// (1-15), or 0.
	Pending() int
	// Ack acknowledges the interrupt when the CPU takes it.
	Ack(level int)
}

// Timing is the per-class cycle cost table (LEON2-like defaults). The
// memory hierarchy adds its own cycles on top.
type Timing struct {
	Load   int // extra cycles for a load beyond fetch+access
	Store  int // extra cycles for a store beyond fetch+access
	Mul    int // extra cycles for UMUL/SMUL/MULScc/LQMAC without MAC
	Div    int // extra cycles for UDIV/SDIV
	Jmpl   int // extra cycles for JMPL/RETT
	Branch int // extra taken-branch penalty (grows with pipeline depth)
	Trap   int // pipeline flush cost of taking a trap
}

// DefaultTiming returns the LEON2 base timing.
func DefaultTiming() Timing {
	return Timing{Load: 1, Store: 2, Mul: 4, Div: 34, Jmpl: 1, Branch: 0, Trap: 3}
}

// Config selects the liquid (reconfigurable) aspects of the integer
// unit: window count, hardware multiply/divide, the custom MAC
// instruction, and the timing table derived from the pipeline depth.
type Config struct {
	// NWindows is the register window count (2-32, LEON2 default 8).
	NWindows int
	// MulDiv enables the hardware multiplier/divider. Without it,
	// UMUL/SMUL/UDIV/SDIV trap as illegal instructions (software
	// emulation, as on a minimal LEON build).
	MulDiv bool
	// MAC enables the Liquid custom multiply-accumulate instruction
	// (OpLQMAC); when false the encoding traps as illegal.
	MAC bool
	// PipelineDepth is the integer-unit pipeline depth (3-8; 0 means
	// the LEON2 default of 5). Deeper pipelines raise the synthesized
	// clock (see the synth package) at the cost of a larger
	// taken-branch penalty; use TimingForDepth to derive Timing.
	PipelineDepth int
	// Timing is the cycle cost table.
	Timing Timing
}

// Depth returns the effective pipeline depth (default 5).
func (c Config) Depth() int {
	if c.PipelineDepth == 0 {
		return 5
	}
	return c.PipelineDepth
}

// TimingForDepth derives the cycle-cost table for a given pipeline
// depth: each stage beyond the 5-stage LEON2 baseline adds one cycle
// of taken-branch penalty and one of trap-flush cost.
func TimingForDepth(depth int) Timing {
	t := DefaultTiming()
	if depth > 5 {
		t.Branch = depth - 5
		t.Trap += depth - 5
	}
	return t
}

// DefaultConfig returns the LEON2 base configuration.
func DefaultConfig() Config {
	return Config{NWindows: 8, MulDiv: true, Timing: DefaultTiming()}
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if c.NWindows < 2 || c.NWindows > 32 {
		return fmt.Errorf("cpu: NWindows %d outside SPARC's 2-32", c.NWindows)
	}
	if d := c.Depth(); d < 3 || d > 8 {
		return fmt.Errorf("cpu: pipeline depth %d outside 3-8", d)
	}
	return nil
}

// ErrorMode is returned by Step when a synchronous trap occurs while
// traps are disabled (ET=0): the SPARC error mode, which on the FPX
// would freeze the processor until reset.
type ErrorMode struct {
	TT uint8  // trap type that caused it
	PC uint32 // faulting instruction
}

func (e *ErrorMode) Error() string {
	return fmt.Sprintf("cpu: error mode: trap %#02x at pc %#08x with ET=0", e.TT, e.PC)
}

// Stats counts instruction mix and trap activity.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Taken        uint64
	Annulled     uint64
	Traps        uint64
	Interrupts   uint64
	WindowSpills uint64 // window overflow traps
	WindowFills  uint64 // window underflow traps
}

// Predecode-cache geometry: a direct-mapped array of decoded
// instructions keyed by PC. 8192 entries cover 32 KB of code — larger
// than any kernel the experiments run — at ~256 KB of host memory per
// CPU. Entries are validated against the fetched instruction word, so
// a collision or stale entry can never change architectural behaviour;
// it only costs a re-decode.
const (
	predecodeEntries = 1 << 13
	predecodeMask    = predecodeEntries - 1
)

// predecodeEntry caches the decode of one instruction word. tag is
// pc+1 (PCs are word-aligned, so +1 makes the zero value invalid and
// still distinguishes pc 0); word is the instruction word the entry
// was decoded from, re-checked on every Step hit. kind is the
// superblock classification of the opcode and h the index of the
// handler bound to it (handlers.go), both valid whenever tag+word
// match. The entry holds no pointers, so the garbage collector never
// scans the table.
type predecodeEntry struct {
	tag  uint32
	word uint32
	kind uint8
	h    uint8
	in   isa.Inst
}

// set fills the entry from a fresh decode of word at pc.
func (e *predecodeEntry) set(pc, word uint32, in isa.Inst) {
	e.tag, e.word, e.kind, e.h, e.in = pc+1, word, classify(in.Op), bind(&in), in
}

// Superblock kinds. A kindFast instruction is straight-line: executed
// without trapping it always sets pc,npc = npc,npc+4 and never annuls,
// so a block of them can be dispatched back to back with the
// npc==pc+4 invariant intact. kindCTI instructions are delay-slot
// control transfers (CALL/Bicc/JMPL) that touch neither the PSR nor
// instruction memory: the dispatcher keeps going long enough to
// execute the delay slot in-block, then returns to the block-entry
// path (whose interrupt probe and spin bookkeeping run at the branch
// target). kindStop instructions force an immediate return to the
// block-entry path: RETT and WRPSR can unmask interrupts, Ticc and
// UNIMP trap deliberately, and FLUSH invalidates the very line being
// dispatched.
const (
	kindFast uint8 = iota
	kindCTI
	kindStop
)

// classify assigns the superblock kind for an opcode. Instructions
// that *may* trap (SAVE/RESTORE window checks, loads/stores,
// mul/div without hardware) stay kindFast: a trap surfaces as
// errTrapped from the handler and ends the block dynamically.
func classify(op isa.Op) uint8 {
	switch op {
	case isa.OpCALL, isa.OpBicc, isa.OpJMPL:
		return kindCTI
	case isa.OpRETT, isa.OpTicc, isa.OpUNIMP, isa.OpWRPSR, isa.OpFLUSH:
		return kindStop
	}
	return kindFast
}

// CPU is one LEON integer unit.
type CPU struct {
	cfg  Config
	imem Memory
	dmem Memory
	irq  IRQSource

	// ifetch, when non-nil, serves instruction fetches instead of
	// imem (same cycle accounting, no interface-dispatch tax).
	ifetch IFetcher
	// lfetch is ifetch when it also supports line peeking; nil
	// otherwise. StepN's superblock dispatch requires it.
	lfetch LineFetcher
	// predecode is the decode-once/execute-many cache consulted
	// before isa.Decode on every fetched word.
	predecode []predecodeEntry
	// nwin mirrors cfg.NWindows so the window arithmetic reads a flat
	// field.
	nwin int

	// FlushFn, when non-nil, is invoked by the FLUSH instruction
	// (wired to both caches by the SoC); it returns bus cycles spent.
	FlushFn func() (int, error)

	// Architected state. regs is the flat register file: slot 0 is
	// %g0 (always zero), slots 1-7 hold %g1-%g7, and window w owns the
	// 16 slots from 8+16w (its outs, then its locals; a window's ins
	// are the next window's outs). The last slot is the sink that
	// writes to %g0 land in; nothing reads it.
	regs    [regSlots]uint32
	psr     uint32
	wim     uint32
	tbr     uint32
	y       uint32
	pc, npc uint32
	annul   bool

	// nnpc is the delayed-branch machine's next nPC: preset to npc+4
	// before each handler runs, overwritten by control transfers.
	nnpc uint32

	// rmap and wmap translate a register field to its slot in regs
	// for reads and for writes in the current window. They differ only
	// at %g0 (the zero slot vs the sink) and are rebuilt on every CWP
	// change (setCWP, remap). Their 256 entries let a uint8 register
	// number index them with no bounds check.
	rmap, wmap [256]uint16

	// Cycles is the running clock-cycle count (the hardware cycle
	// counter the paper's state machine implements reads this).
	Cycles uint64

	// MemEvents accumulates MemEvent* bits as the memory system
	// observes this CPU's accesses. The superblock dispatcher clears
	// and consumes it; the single-step path ignores it.
	MemEvents uint32

	// instStart is Cycles at the start of the instruction currently
	// executing. The SoC's lazy peripheral settling reads it (through
	// InstBoundary) so a device access made *during* an instruction
	// sees peripheral time advanced only through the previous
	// instruction — exactly the per-step tick placement.
	instStart uint64

	// Spin fast-forward scratch (see superblock.go). Preallocated so
	// the probe allocates nothing on the dispatch path.
	spin spinState

	stats Stats

	// profile is the execution-profile table (profile.go); prof points
	// at it while a profile is attached and is nil otherwise.
	profile profile
	prof    *profile

	// Trace hooks; nil hooks cost nothing.
	OnMem  func(addr uint32, size amba.Size, write bool)
	OnTrap func(tt uint8, pc uint32)
}

// New builds a CPU over the given instruction and data paths.
func New(cfg Config, imem, dmem Memory, irq IRQSource) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{cfg: cfg, imem: imem, dmem: dmem, irq: irq, nwin: cfg.NWindows}
	c.predecode = make([]predecodeEntry, predecodeEntries)
	c.wmap[0] = sinkSlot
	for r := uint16(1); r < 8; r++ {
		c.rmap[r], c.wmap[r] = r, r
	}
	c.Reset()
	return c, nil
}

// SetIFetch installs (or, with nil, removes) the fast instruction-
// fetch path and flushes the predecode cache. The SoC wires the
// instruction cache here and re-wires it across partial
// reconfigurations (SwapCaches).
func (c *CPU) SetIFetch(f IFetcher) {
	c.ifetch = f
	c.lfetch, _ = f.(LineFetcher)
	c.InvalidatePredecode()
}

// InstBoundary returns the cycle count at the start of the instruction
// currently executing (equal to Cycles between instructions).
func (c *CPU) InstBoundary() uint64 { return c.instStart }

// InvalidatePredecode flushes the predecoded-instruction cache. The
// SoC and leon_ctrl call it whenever instruction memory can change
// underneath the fetch path without going through the CPU's own store
// port: program load/handoff through the user-side SRAM port, cache
// swaps, and the FLUSH instruction.
func (c *CPU) InvalidatePredecode() {
	for i := range c.predecode {
		c.predecode[i].tag = 0
	}
	c.spin.reset()
}

// Config returns the configuration the CPU was built with.
func (c *CPU) Config() Config { return c.cfg }

// Stats returns a snapshot of the instruction-mix counters.
func (c *CPU) Stats() Stats { return c.stats }

// Reset puts the processor in its power-on state: supervisor mode,
// traps disabled, window 0, executing from address 0 (the boot PROM).
func (c *CPU) Reset() {
	c.regs = [regSlots]uint32{}
	c.psr = psrImplVer | PSRS
	c.remap()
	c.wim, c.tbr, c.y = 0, 0, 0
	c.pc, c.npc = 0, 4
	c.annul = false
	c.InvalidatePredecode()
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// NPC returns the next program counter (delay-slot machine).
func (c *CPU) NPC() uint32 { return c.npc }

// SetPC redirects execution (reset vectoring by the SoC).
func (c *CPU) SetPC(pc uint32) {
	c.pc, c.npc, c.annul = pc, pc+4, false
}

// PSR returns the processor state register.
func (c *CPU) PSR() uint32 { return c.psr }

// WIM returns the window invalid mask.
func (c *CPU) WIM() uint32 { return c.wim }

// TBR returns the trap base register.
func (c *CPU) TBR() uint32 { return c.tbr }

// Y returns the Y register.
func (c *CPU) Y() uint32 { return c.y }

// cwp returns the current window pointer.
func (c *CPU) cwp() int { return int(c.psr & psrCWPMask) }

// CWP returns the current window pointer (exported for tests/tracing).
func (c *CPU) CWP() int { return c.cwp() }

func (c *CPU) pil() int { return int(c.psr & psrPILMask >> psrPILShift) }

// Register-file geometry: %g0-%g7, 16 slots for each of up to 32
// windows, and the %g0 write sink.
const (
	regSlots = 8 + 32*16 + 1
	sinkSlot = regSlots - 1
)

// Reg reads register r in the current window.
func (c *CPU) Reg(r isa.Reg) uint32 { return c.regs[c.rmap[r]] }

// SetReg writes register r in the current window (writes to %g0 are
// discarded).
func (c *CPU) SetReg(r isa.Reg, v uint32) { c.regs[c.wmap[r]] = v }

// setCWP makes window w current.
func (c *CPU) setCWP(w int) {
	c.psr = c.psr&^psrCWPMask | uint32(w)
	c.remap()
}

// remap rebuilds the windowed entries of the slot maps for the CWP in
// the PSR: the outs and locals are window w's slots, the ins are the
// outs of window (w+1) mod NWindows.
func (c *CPU) remap() {
	w := c.cwp()
	outs := uint16(8 + 16*w)
	ins := uint16(8 + 16*((w+1)%c.nwin))
	for i := uint16(0); i < 8; i++ {
		c.rmap[8+i], c.wmap[8+i] = outs+i, outs+i
		c.rmap[16+i], c.wmap[16+i] = outs+8+i, outs+8+i
		c.rmap[24+i], c.wmap[24+i] = ins+i, ins+i
	}
}

// usedSlots is the number of register-file slots below the sink that
// hold architected state for this window count.
func (c *CPU) usedSlots() int { return 8 + 16*c.nwin }

// trap enters a trap: decrement CWP without a WIM check, stash PC/nPC
// in the new window's %l1/%l2, disable traps and vector through TBR.
// With ET already 0 the processor enters error mode.
func (c *CPU) trap(tt uint8) error {
	c.stats.Traps++
	if c.OnTrap != nil {
		c.OnTrap(tt, c.pc)
	}
	if c.psr&PSRET == 0 {
		return &ErrorMode{TT: tt, PC: c.pc}
	}
	switch tt {
	case TrapWindowOverflow:
		c.stats.WindowSpills++
	case TrapWindowUnderflow:
		c.stats.WindowFills++
	}
	// PS ← S, S ← 1, ET ← 0, CWP ← CWP-1 (mod NWindows).
	c.psr &^= PSRPS
	if c.psr&PSRS != 0 {
		c.psr |= PSRPS
	}
	c.psr |= PSRS
	c.psr &^= PSRET
	c.setCWP((c.cwp() + c.nwin - 1) % c.nwin)
	c.SetReg(isa.L1, c.pc)
	c.SetReg(isa.L2, c.npc)
	c.tbr = c.tbr&0xFFFFF000 | uint32(tt)<<4
	c.pc = c.tbr
	c.npc = c.pc + 4
	c.annul = false
	c.Cycles += uint64(c.cfg.Timing.Trap)
	return nil
}

var errTrapped = errors.New("cpu: instruction trapped")

// Step executes one instruction (or takes one pending interrupt) and
// advances the cycle counter. It returns nil normally and an *ErrorMode
// when the processor would freeze.
func (c *CPU) Step() error {
	c.instStart = c.Cycles
	// External interrupts are sampled between instructions.
	if c.irq != nil && c.psr&PSRET != 0 {
		if lvl := c.irq.Pending(); lvl == 15 || (lvl > 0 && lvl > c.pil()) {
			c.irq.Ack(lvl)
			c.stats.Interrupts++
			return c.trap(uint8(TrapInterruptBase + lvl))
		}
	}

	// Annulled delay slot: fetch is skipped, one dead cycle.
	if c.annul {
		c.annul = false
		c.stats.Annulled++
		c.pc, c.npc = c.npc, c.npc+4
		c.Cycles++
		return nil
	}

	if c.pc&3 != 0 {
		return c.trap(TrapAlignment)
	}

	// Instruction fetch: the fast path is a concrete call into the
	// instruction cache; the generic Memory interface is the fallback
	// for CPUs wired without one (unit tests, bare configurations).
	var (
		word        uint32
		fetchCycles int
		err         error
	)
	if c.ifetch != nil {
		word, fetchCycles, _, err = c.ifetch.FetchWord(c.pc)
	} else {
		word, fetchCycles, err = c.imem.Read(c.pc, amba.SizeWord)
	}
	c.Cycles += uint64(fetchCycles)
	if err != nil {
		return c.trap(TrapIAccess)
	}

	// Decode once, execute many: the predecode entry is trusted only
	// when it was decoded from exactly the word the fetch path just
	// served, so stale or colliding entries cost a re-decode, never a
	// wrong execution.
	e := &c.predecode[(c.pc>>2)&predecodeMask]
	if e.tag != c.pc+1 || e.word != word {
		in, derr := isa.Decode(word)
		if derr != nil {
			return c.trap(TrapIllegalInst)
		}
		e.set(c.pc, word, in)
	}
	if c.prof != nil {
		c.prof.credit(c.pc)
	}
	c.stats.Instructions++

	c.nnpc = c.npc + 4
	if err := handlers[e.h](c, &e.in); err != nil {
		if errors.Is(err, errTrapped) {
			return nil // trap already vectored
		}
		return err
	}
	c.pc, c.npc = c.npc, c.nnpc
	return nil
}

// takeTrap vectors through trap() and signals the Step loop.
func (c *CPU) takeTrap(tt uint8) error {
	if err := c.trap(tt); err != nil {
		return err
	}
	return errTrapped
}
