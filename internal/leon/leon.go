// Package leon assembles the Liquid processor system of Fig. 3: the
// LEON SPARC-compatible CPU with its instruction and data caches, the
// AMBA AHB backbone, the boot PROM, the FPX SRAM holding user code, the
// SDRAM behind the §3.2 adapter, the APB peripherals, and the leon_ctrl
// external circuitry of §3.1 that disconnects the processor from main
// memory, hands off user programs and counts their clock cycles.
package leon

import (
	"fmt"
	"io"
	"maps"
	"sync"

	"liquidarch/internal/ahbadapter"
	"liquidarch/internal/amba"
	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
	"liquidarch/internal/mem"
	"liquidarch/internal/periph"
)

// Memory map (LEON2-like, §2.3).
const (
	ROMBase   = 0x00000000
	ROMSize   = 64 << 10
	SRAMBase  = 0x40000000
	SDRAMBase = 0x60000000
	APBBase   = 0x80000000
	APBSize   = 0x10000

	// APB device offsets.
	APBCacheCtrl = 0x10
	APBTimer     = 0x40
	APBPrescaler = 0x60
	APBUART      = 0x70
	APBIRQCtrl   = 0x90
	APBGPIO      = 0xA0

	// Interrupt lines.
	IRQTimer = 8
	IRQUART  = 3

	// Mailbox words at the bottom of SRAM (§3.1): the poll word the
	// modified boot ROM watches, plus fault and interrupt counters
	// maintained by the ROM trap handlers. The mailbox page is
	// uncacheable so the poll loop observes leon_ctrl's writes.
	MailboxProgAddr = SRAMBase + 0x00 // start address of the loaded program
	MailboxFaultTT  = SRAMBase + 0x04 // trap type recorded by bad_trap
	MailboxFaultPC  = SRAMBase + 0x08 // faulting PC recorded by bad_trap
	MailboxIRQCount = SRAMBase + 0x0C // incremented by the ROM IRQ stub
	MailboxEnd      = SRAMBase + 0x100

	// DefaultLoadAddr is where user programs are placed by default.
	DefaultLoadAddr = SRAMBase + 0x1000

	// ROMPollAddr is the fixed address of the CheckReady poll routine
	// in the boot ROM (Fig. 5); user programs return by jumping here,
	// and leon_ctrl detects that return by watching the address bus.
	ROMPollAddr = ROMBase + 0x1000
)

// Config describes one point in the liquid-architecture configuration
// space of the whole processor system.
type Config struct {
	CPU    cpu.Config
	ICache cache.Config
	DCache cache.Config

	// SRAMSize and SDRAMSize are the memory capacities in bytes.
	SRAMSize  int
	SDRAMSize int

	// BurstWords is the adapter's read chunk (§3.2; the paper uses 4).
	BurstWords int

	// ClockMHz is the synthesized system clock (Fig. 10: 30 MHz).
	ClockMHz float64
}

// DefaultConfig is the base Liquid processor system: LEON2 defaults
// with the paper's constant 1 KB instruction cache and a 4 KB data
// cache, both with 32-byte lines.
func DefaultConfig() Config {
	return Config{
		CPU:        cpu.DefaultConfig(),
		ICache:     cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1},
		DCache:     cache.Config{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1},
		SRAMSize:   2 << 20,
		SDRAMSize:  8 << 20,
		BurstWords: 4,
		ClockMHz:   30,
	}
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.ICache.Validate(); err != nil {
		return fmt.Errorf("icache: %w", err)
	}
	if err := c.DCache.Validate(); err != nil {
		return fmt.Errorf("dcache: %w", err)
	}
	if c.SRAMSize < int(MailboxEnd-SRAMBase)+4096 {
		return fmt.Errorf("leon: SRAM size %d too small", c.SRAMSize)
	}
	if c.SDRAMSize < 4096 {
		return fmt.Errorf("leon: SDRAM size %d too small", c.SDRAMSize)
	}
	if c.BurstWords < 1 {
		return fmt.Errorf("leon: burst words %d invalid", c.BurstWords)
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("leon: clock %v MHz invalid", c.ClockMHz)
	}
	return nil
}

// SoC is one instantiated Liquid processor system.
type SoC struct {
	Config Config

	CPU    *cpu.CPU
	Bus    *amba.AHB
	ICache *cache.Cache
	DCache *cache.Cache

	SRAM      *mem.SRAM
	SDRAM     *mem.SDRAM
	SDRAMCtrl *mem.Controller
	Adapter   *ahbadapter.Adapter
	NetPort   *mem.Port // second SDRAM controller port (network side)

	APB       *amba.APB
	IRQCtrl   *periph.IRQCtrl
	Timer     *periph.Timer
	Prescaler *periph.Prescaler
	UART      *periph.UART
	GPIO      *periph.GPIO

	ROM     *ROM
	BootMap map[string]uint32 // boot ROM symbol table (this SoC's copy)

	// Quantum caps the event-horizon batch in CPU cycles (0 =
	// uncapped): StepN never runs the CPU more than Quantum cycles
	// past a settle point before settling peripherals again. Execution
	// is bit-identical at any quantum — the cap exists so horizon-
	// related divergences can be bisected (liquid-bench -quantum).
	Quantum uint64

	sramSwitch *sramSwitch
	imem, dmem *splitMem
	uartOut    io.Writer // UART sink, carried over by Reload

	// settled is the CPU cycle count already delivered to the
	// prescaler. Between a settle point and the next event horizon the
	// peripherals intentionally lag the CPU; Settle pays the debt.
	settled uint64
}

// Options adjust how the simulator schedules work without changing the
// modelled hardware; any setting produces bit-identical execution.
type Options struct {
	// Quantum caps the event-horizon batch in CPU cycles (0 =
	// uncapped). See SoC.Quantum.
	Quantum uint64
}

// New builds a Liquid processor system on a fresh board: zeroed SRAM
// and SDRAM of the sizes cfg names. UART transmit output goes to
// uartOut (nil discards it). Boot it with Controller.Boot, which parks
// the CPU in the boot ROM's poll loop with main memory disconnected,
// exactly the §3.1 idle state.
func New(cfg Config, uartOut io.Writer) (*SoC, error) {
	return NewWithOptions(cfg, uartOut, Options{})
}

// NewWithOptions is New with simulator scheduling options.
func NewWithOptions(cfg Config, uartOut io.Writer, opts Options) (*SoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSoC(cfg, uartOut, opts, mem.NewSRAM(cfg.SRAMSize), mem.NewSDRAM(cfg.SDRAMSize), nil)
}

// Reload is a full FPGA reprogramming of s's board: it builds the SoC
// for cfg on s's SRAM and SDRAM, which are chips on the board and keep
// their contents (§3.1), with the same UART sink and scheduling
// options. Everything in the fabric is new — CPU, caches, SDRAM
// controller and ports, adapter, peripherals, boot ROM — so statistics
// and simulated time start from zero. The board's memory sizes are
// fixed: a cfg naming other sizes is an error (CanReload). The new CPU
// also takes over s's predecode and execution-profile tables
// (cpu.NewFrom) rather than allocating its own, so s must not step once
// Reload has succeeded: stop whatever drives it first. From then on
// only the new SoC may use the memories.
func (s *SoC) Reload(cfg Config) (*SoC, error) {
	if err := s.CanReload(cfg); err != nil {
		return nil, err
	}
	return newSoC(cfg, s.uartOut, Options{Quantum: s.Quantum}, s.SRAM, s.SDRAM, s.CPU)
}

// CanReload returns the error Reload would refuse cfg with, or nil:
// cfg must be valid and name the board's memory sizes.
func (s *SoC) CanReload(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.SRAMSize != s.Config.SRAMSize {
		return fmt.Errorf("leon: reload asks for %d bytes of SRAM; the board has %d", cfg.SRAMSize, s.Config.SRAMSize)
	}
	if cfg.SDRAMSize != s.Config.SDRAMSize {
		return fmt.Errorf("leon: reload asks for %d bytes of SDRAM; the board has %d", cfg.SDRAMSize, s.Config.SDRAMSize)
	}
	return nil
}

// newSoC builds the fabric for a validated cfg around the board
// memories sram and sdram, with a CPU that takes over prev's tables
// when prev is not nil (cpu.NewFrom). Building the CPU is its last step
// that can fail, and that only for an invalid cfg, so a failed build
// leaves prev whole.
func newSoC(cfg Config, uartOut io.Writer, opts Options, sram *mem.SRAM, sdram *mem.SDRAM, prev *cpu.CPU) (*SoC, error) {
	s := &SoC{Config: cfg, Quantum: opts.Quantum, SRAM: sram, SDRAM: sdram, uartOut: uartOut}

	// Peripherals.
	s.IRQCtrl = &periph.IRQCtrl{}
	s.Timer = periph.NewTimer(s.IRQCtrl, IRQTimer)
	s.Prescaler = periph.NewPrescaler(s.Timer)
	s.UART = periph.NewUART(uartOut, s.IRQCtrl, IRQUART)
	s.GPIO = &periph.GPIO{}

	s.APB = amba.NewAPB()
	for _, d := range []struct {
		name string
		base uint32
		size uint32
		dev  amba.Device
	}{
		{"timer", APBTimer, 0x10, s.Timer},
		{"prescaler", APBPrescaler, 0x10, s.Prescaler},
		{"uart", APBUART, 0x10, s.UART},
		{"irqctrl", APBIRQCtrl, 0x10, s.IRQCtrl},
		{"gpio", APBGPIO, 0x10, s.GPIO},
	} {
		if err := s.APB.Map(d.name, d.base, d.size, d.dev); err != nil {
			return nil, err
		}
	}

	// Memory paths: the disconnect switch in front of SRAM and the
	// SDRAM controller's module ports.
	s.sramSwitch = &sramSwitch{inner: s.SRAM}
	s.SDRAMCtrl = mem.NewController(s.SDRAM)
	leonPort, err := s.SDRAMCtrl.Port("leon")
	if err != nil {
		return nil, err
	}
	s.NetPort, err = s.SDRAMCtrl.Port("network")
	if err != nil {
		return nil, err
	}
	s.Adapter = ahbadapter.New(leonPort)
	s.Adapter.BurstWords = cfg.BurstWords

	// Boot ROM.
	s.ROM, err = bootROM(cfg.CPU.NWindows, SRAMBase+uint32(cfg.SRAMSize))
	if err != nil {
		return nil, fmt.Errorf("leon: boot ROM: %w", err)
	}
	s.BootMap = s.ROM.Symbols

	// Bus.
	s.Bus = amba.NewAHB()
	for _, m := range []struct {
		name string
		base uint32
		size uint32
		sl   amba.Slave
	}{
		{"prom", ROMBase, ROMSize, s.ROM},
		{"sram", SRAMBase, uint32(cfg.SRAMSize), s.sramSwitch},
		{"sdram", SDRAMBase, uint32(cfg.SDRAMSize), s.Adapter},
		{"apb", APBBase, APBSize, s.APB},
	} {
		if err := s.Bus.Map(m.name, m.base, m.size, m.sl); err != nil {
			return nil, err
		}
	}

	// Caches and the cacheability mux. Both memory paths go through
	// swappable muxes so partial reconfiguration (SwapCaches) can
	// replace the cache modules under a live CPU.
	s.ICache, err = cache.New(cfg.ICache, s.Bus)
	if err != nil {
		return nil, fmt.Errorf("icache: %w", err)
	}
	s.DCache, err = cache.New(cfg.DCache, s.Bus)
	if err != nil {
		return nil, fmt.Errorf("dcache: %w", err)
	}
	s.imem = &splitMem{soc: s, cached: s.ICache, bus: s.Bus, alwaysCached: true}
	s.dmem = &splitMem{soc: s, cached: s.DCache, bus: s.Bus}
	// Cache control register (LEON2's CCR): software enable/disable
	// and flush of both caches. It reaches the caches through s, so it
	// addresses the live instances even across partial
	// reconfigurations.
	if err := s.APB.Map("ccr", APBCacheCtrl, 0x10, &cacheCtrl{soc: s}); err != nil {
		return nil, err
	}

	s.CPU, err = cpu.NewFrom(prev, cfg.CPU, s.imem, s.dmem, s.IRQCtrl)
	if err != nil {
		return nil, err
	}
	// Instruction fetches take the concrete fast path straight into the
	// I-cache (the instruction side has no uncacheable windows, so the
	// splitMem mux adds nothing but an interface dispatch).
	s.CPU.SetICache(s.ICache)
	s.CPU.FlushFn = func() (int, error) {
		n1, err := s.ICache.Flush()
		if err != nil {
			return n1, err
		}
		n2, err := s.DCache.Flush()
		return n1 + n2, err
	}
	return s, nil
}

// Step executes one CPU instruction and ticks the peripheral clock by
// the cycles it consumed.
func (s *SoC) Step() error {
	err := s.CPU.Step()
	s.Settle()
	return err
}

// Settle delivers all CPU cycles not yet ticked into the prescaler.
// After Settle the peripherals have observed exactly CPU.Cycles cycles
// — the invariant the per-step interpreter maintained after every
// instruction, now restored only at batch boundaries and device
// accesses.
func (s *SoC) Settle() {
	if d := s.CPU.Cycles - s.settled; d > 0 {
		s.settled = s.CPU.Cycles
		s.Prescaler.Tick(d)
	}
}

// settleDevice is called by the data path just before a device (APB)
// access: peripheral time owed up to the *start* of the current
// instruction is delivered, so the device sees registers exactly as
// the per-step interpreter would have left them (ticks land at
// instruction boundaries, never mid-instruction). The device event bit
// also ends the CPU's current batch, because the access may have
// re-armed a timer or raised an interrupt and moved the horizon.
func (s *SoC) settleDevice() {
	s.CPU.MemEvents |= cpu.MemEventDevice
	if b := s.CPU.InstBoundary(); b > s.settled {
		d := b - s.settled
		s.settled = b
		s.Prescaler.Tick(d)
	}
}

// StepN executes up to maxSteps instructions in event-horizon batches:
// inside a batch the CPU dispatches superblocks with no per-step
// interrupt probe or prescaler tick, and the batch never extends past
// the next peripheral event (timer underflow deadline), the cycle cap,
// or the quantum. At every batch boundary peripherals settle in bulk,
// which fires exactly the underflows (and interrupt raises) the
// per-step interpreter would have fired, at the same instruction
// boundaries — execution is bit-identical to calling Step in a loop.
// It stops early when the program counter reaches stopPC or the cycle
// counter reaches cycleCap (both checked between instructions), and
// returns the number of instructions executed.
func (s *SoC) StepN(maxSteps int, cycleCap uint64, stopPC uint32) (int, error) {
	steps := 0
	for steps < maxSteps {
		s.Settle()
		if s.CPU.Cycles >= cycleCap || s.CPU.PC() == stopPC {
			break
		}
		// The horizon: no peripheral-visible event can occur before
		// this cycle count, so the CPU needs no interrupt probe or
		// prescaler tick inside it.
		limit := cycleCap
		if d := s.Prescaler.NextEventCycles(); d != periph.NoEvent {
			if dl := s.CPU.Cycles + d; dl < limit {
				limit = dl
			}
		}
		if s.Quantum > 0 {
			if q := s.CPU.Cycles + s.Quantum; q < limit {
				limit = q
			}
		}
		n, err := s.CPU.StepN(maxSteps-steps, limit, stopPC)
		steps += n
		s.Settle()
		if err != nil {
			return steps, err
		}
	}
	return steps, nil
}

// Cycles returns the hardware cycle counter.
func (s *SoC) Cycles() uint64 { return s.CPU.Cycles }

// Seconds converts a cycle count to wall-clock seconds at the
// synthesized frequency.
func (s *SoC) Seconds(cycles uint64) float64 {
	return float64(cycles) / (s.Config.ClockMHz * 1e6)
}

// SwapCaches performs a partial runtime reconfiguration in the sense
// of the paper's reference [2] (Dynamic Hardware Plugins): the cache
// modules are replaced with newly parameterized instances while the
// rest of the fabric — CPU state, memories, peripherals — stays live.
// Dirty write-back lines are flushed to memory before the old data
// cache is discarded.
func (s *SoC) SwapCaches(icfg, dcfg cache.Config) error {
	newI, err := cache.New(icfg, s.Bus)
	if err != nil {
		return fmt.Errorf("leon: swap icache: %w", err)
	}
	newD, err := cache.New(dcfg, s.Bus)
	if err != nil {
		return fmt.Errorf("leon: swap dcache: %w", err)
	}
	if _, err := s.DCache.Flush(); err != nil {
		return fmt.Errorf("leon: flush before swap: %w", err)
	}
	s.ICache, s.DCache = newI, newD
	s.imem.cached = newI
	s.dmem.cached = newD
	// Re-point the CPU's concrete fetch fast path at the new I-cache.
	// SetICache also drops the predecoded instruction cache: the swap
	// is a reconfiguration boundary and decoded state must not outlive
	// the module it was fetched through.
	s.CPU.SetICache(newI)
	s.Config.ICache = icfg
	s.Config.DCache = dcfg
	return nil
}

// Cache control register bits (LEON2-like CCR subset).
const (
	CCREnableICache = 1 << 0
	CCREnableDCache = 1 << 1
	CCRFlush        = 1 << 2 // write-only: flush both caches
)

// cacheCtrl is the CCR APB device. It always addresses the SoC's
// current cache instances, so it stays correct across SwapCaches.
type cacheCtrl struct {
	soc *SoC
}

// ReadReg implements amba.Device.
func (c *cacheCtrl) ReadReg(off uint32) (uint32, error) {
	if off != 0 {
		return 0, fmt.Errorf("leon: ccr has no register at %#x", off)
	}
	var v uint32
	if c.soc.ICache.Enabled() {
		v |= CCREnableICache
	}
	if c.soc.DCache.Enabled() {
		v |= CCREnableDCache
	}
	return v, nil
}

// WriteReg implements amba.Device.
func (c *cacheCtrl) WriteReg(off uint32, v uint32) error {
	if off != 0 {
		return fmt.Errorf("leon: ccr has no register at %#x", off)
	}
	if on := v&CCREnableICache != 0; on != c.soc.ICache.Enabled() {
		// While the I-cache is off, words are decoded from memory,
		// which its resident lines may not match once it is back on;
		// a live entry must match its resident line (cpu.CPU's
		// dropStale), so switching drops the predecoded instructions.
		c.soc.ICache.SetEnabled(on)
		c.soc.CPU.InvalidatePredecode()
	}
	c.soc.DCache.SetEnabled(v&CCREnableDCache != 0)
	if v&CCRFlush != 0 {
		// A software cache flush is a barrier after code modification;
		// drop predecoded instructions along with the cached lines.
		c.soc.CPU.InvalidatePredecode()
		if _, err := c.soc.ICache.Flush(); err != nil {
			return err
		}
		if _, err := c.soc.DCache.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// splitMem routes data accesses either through the data cache or, for
// the uncacheable areas (the SRAM mailbox page and the APB peripheral
// space), directly to the bus. LEON marks I/O regions uncacheable; the
// mailbox page must also bypass the cache so the poll loop of Fig. 5
// observes values written by the external circuitry.
type splitMem struct {
	soc *SoC
	// cached is the concrete cache module (not a cpu.Memory interface):
	// the data path is the hottest interface call in the simulator and
	// keeping the type concrete lets the compiler devirtualize it.
	cached       *cache.Cache
	bus          *amba.AHB
	alwaysCached bool // instruction path: no uncacheable windows
}

func uncacheable(addr uint32) bool {
	return addr >= APBBase && addr < APBBase+APBSize ||
		addr >= MailboxProgAddr && addr < MailboxEnd
}

func device(addr uint32) bool {
	return addr >= APBBase && addr < APBBase+APBSize
}

func (m *splitMem) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if m.alwaysCached {
		// Instruction path: never a device, never a data event.
		return m.cached.Read(addr, size)
	}
	if uncacheable(addr) {
		if device(addr) {
			m.soc.settleDevice()
		}
		return m.bus.Read(addr, size)
	}
	m.soc.CPU.MemEvents |= cpu.MemEventCached
	return m.cached.Read(addr, size)
}

func (m *splitMem) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	if uncacheable(addr) {
		if device(addr) {
			m.soc.settleDevice()
		}
		return m.bus.Write(addr, val, size)
	}
	m.soc.CPU.MemEvents |= cpu.MemEventCached
	return m.cached.Write(addr, val, size)
}

// ROM is the boot PROM: read-only storage assembled from the modified
// LEON boot code of Fig. 5.
type ROM struct {
	data    []byte
	Symbols map[string]uint32
	// WaitStates per access (PROMs are slow; LEON default timing).
	WaitStates int
}

// BuildBootROM assembles the boot PROM image for a system with the
// given window count and initial stack top.
func BuildBootROM(nwindows int, stackTop uint32) (*ROM, error) {
	src := BootROMSource(nwindows, stackTop)
	obj, err := asm.AssembleAt(src, ROMBase)
	if err != nil {
		return nil, err
	}
	if obj.Size() > ROMSize {
		return nil, fmt.Errorf("boot ROM %d bytes exceeds %d", obj.Size(), ROMSize)
	}
	data := make([]byte, ROMSize)
	copy(data, obj.Code)
	return &ROM{data: data, Symbols: obj.Symbols, WaitStates: 2}, nil
}

// bootROMKey identifies one boot PROM image: BootROMSource depends on
// nothing else.
type bootROMKey struct {
	nwindows int
	stackTop uint32
}

// bootROMs memoizes BuildBootROM for the process: assembling the ROM
// would otherwise dominate the cost of a full reconfiguration
// (SoC.Reload). Stored ROMs are never written.
var bootROMs sync.Map // bootROMKey → *ROM

// bootROM returns a ROM for a new SoC. The image bytes are shared
// read-only with every SoC of the same key; the ROM value and its
// symbol table are the SoC's own.
func bootROM(nwindows int, stackTop uint32) (*ROM, error) {
	key := bootROMKey{nwindows, stackTop}
	v, ok := bootROMs.Load(key)
	if !ok {
		rom, err := BuildBootROM(nwindows, stackTop)
		if err != nil {
			return nil, err
		}
		v, _ = bootROMs.LoadOrStore(key, rom)
	}
	rom := *v.(*ROM)
	rom.Symbols = maps.Clone(rom.Symbols)
	return &rom, nil
}

// Read implements amba.Slave.
func (r *ROM) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if int(addr)+int(size) > len(r.data) {
		return 0, 0, &amba.BusError{Addr: addr}
	}
	var v uint32
	switch size {
	case amba.SizeWord:
		v = uint32(r.data[addr])<<24 | uint32(r.data[addr+1])<<16 |
			uint32(r.data[addr+2])<<8 | uint32(r.data[addr+3])
	case amba.SizeHalf:
		v = uint32(r.data[addr])<<8 | uint32(r.data[addr+1])
	default:
		v = uint32(r.data[addr])
	}
	return v, r.WaitStates, nil
}

// Write implements amba.Slave; PROM writes are bus errors.
func (r *ROM) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	return 0, &amba.BusError{Addr: addr, Write: true}
}

// ReadBurst implements amba.Slave.
func (r *ROM) ReadBurst(addr uint32, words []uint32) (int, error) {
	if int(addr)+len(words)*4 > len(r.data) {
		return 0, &amba.BusError{Addr: addr}
	}
	for i := range words {
		off := addr + uint32(i)*4
		words[i] = uint32(r.data[off])<<24 | uint32(r.data[off+1])<<16 |
			uint32(r.data[off+2])<<8 | uint32(r.data[off+3])
	}
	return r.WaitStates + len(words), nil
}

// sramSwitch is the external circuitry of Fig. 6 between the LEON and
// main memory: while disconnected it drives zeros on the processor's
// data bus and ignores writes, so the boot ROM's poll loop keeps
// reading zero. The user-side port (SRAM.Poke/Peek) is unaffected.
type sramSwitch struct {
	inner     *mem.SRAM
	connected bool
}

func (s *sramSwitch) Read(addr uint32, size amba.Size) (uint32, int, error) {
	if !s.connected {
		return 0, s.inner.WaitStates, nil
	}
	return s.inner.Read(addr, size)
}

func (s *sramSwitch) Write(addr uint32, val uint32, size amba.Size) (int, error) {
	if !s.connected {
		return s.inner.WaitStates, nil
	}
	return s.inner.Write(addr, val, size)
}

func (s *sramSwitch) ReadBurst(addr uint32, words []uint32) (int, error) {
	if !s.connected {
		for i := range words {
			words[i] = 0
		}
		return s.inner.WaitStates + len(words), nil
	}
	return s.inner.ReadBurst(addr, words)
}
