package mem

import "fmt"

// SDRAM is the raw SDRAM device behind the FPX controller: a byte array
// addressed in 64-bit words. Timing lives in the Controller, which owns
// the device's command interface.
type SDRAM struct {
	data []byte
}

// NewSDRAM returns a zeroed device of the given size (rounded up to a
// multiple of 8 bytes).
func NewSDRAM(size int) *SDRAM {
	size = (size + 7) &^ 7
	return &SDRAM{data: make([]byte, size)}
}

// Size returns the capacity in bytes.
func (d *SDRAM) Size() int { return len(d.data) }

// ControllerStats counts controller activity; the adapter benchmarks
// (§3.2, experiment E5) read these to show where handshakes go.
type ControllerStats struct {
	Requests   uint64 // handshakes performed
	ReadBeats  uint64 // 64-bit words delivered
	WriteBeats uint64 // 64-bit words accepted
	ArbSwitch  uint64 // grants that switched between modules
}

// Controller is the FPX SDRAM controller of [9]: an arbitrated
// interface with support for up to three modules and sequential bursts
// of 64-bit words whose length must be declared before the transfer
// starts. Each request costs one handshake; each 64-bit beat streams at
// BeatCycles.
type Controller struct {
	dev     *SDRAM
	ports   []*Port
	lastArb int // index of the last granted port, -1 initially

	// HandshakeCycles is the fixed request/grant/row-activate cost per
	// burst (the "separate handshake" of §3.2).
	HandshakeCycles int
	// BeatCycles is the streaming cost per 64-bit word.
	BeatCycles int
	// ArbCycles is charged when the grant moves to a different module.
	ArbCycles int
	// MaxBurst is the longest declared burst in 64-bit words.
	MaxBurst int

	stats ControllerStats
}

// NewController wires a controller to dev with FPX-like timing.
func NewController(dev *SDRAM) *Controller {
	return &Controller{
		dev:             dev,
		lastArb:         -1,
		HandshakeCycles: 8,
		BeatCycles:      2,
		ArbCycles:       2,
		MaxBurst:        64,
	}
}

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// ResetStats zeroes the activity counters.
func (c *Controller) ResetStats() { c.stats = ControllerStats{} }

// Port returns a new module port. The FPX controller arbitrates up to
// three modules (LEON plus the network components, §2.4).
func (c *Controller) Port(name string) (*Port, error) {
	if len(c.ports) >= 3 {
		return nil, fmt.Errorf("mem: SDRAM controller supports at most 3 modules, %q is one too many", name)
	}
	p := &Port{ctrl: c, name: name, index: len(c.ports)}
	c.ports = append(c.ports, p)
	return p, nil
}

// Port is one module's connection to the controller.
type Port struct {
	ctrl  *Controller
	name  string
	index int
}

// Name returns the module name given at creation.
func (p *Port) Name() string { return p.name }

// grant performs arbitration and the request handshake, returning its
// cycle cost.
func (p *Port) grant() int {
	c := p.ctrl
	cost := c.HandshakeCycles
	if c.lastArb >= 0 && c.lastArb != p.index {
		cost += c.ArbCycles
		c.stats.ArbSwitch++
	}
	c.lastArb = p.index
	c.stats.Requests++
	return cost
}

func (p *Port) check(addr uint32, n int) error {
	if addr%8 != 0 {
		return fmt.Errorf("mem: SDRAM burst address %#x not 64-bit aligned", addr)
	}
	if n%8 != 0 {
		return fmt.Errorf("mem: SDRAM burst of %d bytes is not whole 64-bit words", n)
	}
	if beats := n / 8; beats > p.ctrl.MaxBurst {
		return fmt.Errorf("mem: burst of %d beats exceeds declared maximum %d", beats, p.ctrl.MaxBurst)
	}
	if uint64(addr)+uint64(n) > uint64(len(p.ctrl.dev.data)) {
		return fmt.Errorf("mem: SDRAM burst [%#x,+%d beats) out of range", addr, n/8)
	}
	return nil
}

// ReadBurst reads len(dst)/8 sequential 64-bit words starting at the
// 8-byte-aligned addr into dst, in the device's big-endian byte order.
// The burst length is declared up front, as the FPX controller
// requires.
func (p *Port) ReadBurst(addr uint32, dst []byte) (int, error) {
	if err := p.check(addr, len(dst)); err != nil {
		return 0, err
	}
	cost := p.grant()
	copy(dst, p.ctrl.dev.data[addr:])
	beats := len(dst) / 8
	p.ctrl.stats.ReadBeats += uint64(beats)
	return cost + p.ctrl.BeatCycles*beats, nil
}

// WriteBurst writes len(src)/8 sequential 64-bit words, big-endian,
// starting at the 8-byte-aligned addr.
func (p *Port) WriteBurst(addr uint32, src []byte) (int, error) {
	if err := p.check(addr, len(src)); err != nil {
		return 0, err
	}
	cost := p.grant()
	copy(p.ctrl.dev.data[addr:], src)
	beats := len(src) / 8
	p.ctrl.stats.WriteBeats += uint64(beats)
	return cost + p.ctrl.BeatCycles*beats, nil
}
