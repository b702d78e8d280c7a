package amba

import "fmt"

// Device is a register-file peripheral on the APB. Offsets are relative
// to the device's window and always word-sized: the APB bridge performs
// word accesses only, as in LEON2.
type Device interface {
	// ReadReg returns the register at word-aligned offset off.
	ReadReg(off uint32) (uint32, error)
	// WriteReg stores v to the register at word-aligned offset off.
	WriteReg(off uint32, v uint32) error
}

type apbRegion struct {
	name   string
	base   uint32
	size   uint32
	device Device
}

// APB is the low-bandwidth peripheral bus, attached to the AHB through
// a bridge. Every transfer pays BridgeCycles for the AHB→APB crossing
// plus one APB setup and one APB access cycle (no wait states: LEON APB
// peripherals respond immediately).
type APB struct {
	regions []apbRegion

	// BridgeCycles is the AHB-to-APB crossing penalty per transfer.
	BridgeCycles int
}

// NewAPB returns an empty peripheral bus with the default 2-cycle
// bridge penalty.
func NewAPB() *APB {
	return &APB{BridgeCycles: 2}
}

// Map attaches dev to the window [base, base+size) of the APB address
// space (offsets relative to the bridge's AHB window).
func (p *APB) Map(name string, base, size uint32, dev Device) error {
	if size == 0 {
		return fmt.Errorf("amba: APB device %q has zero size", name)
	}
	for _, r := range p.regions {
		if base < r.base+r.size && r.base < base+size {
			return fmt.Errorf("amba: APB device %q overlaps %q", name, r.name)
		}
	}
	p.regions = append(p.regions, apbRegion{name: name, base: base, size: size, device: dev})
	return nil
}

func (p *APB) lookup(addr uint32) *apbRegion {
	for i := range p.regions {
		r := &p.regions[i]
		if addr >= r.base && addr-r.base < r.size {
			return r
		}
	}
	return nil
}

// cost is the per-transfer APB cycle cost (bridge + setup + access).
func (p *APB) cost() int { return p.BridgeCycles + 2 }

// Read implements Slave. Sub-word reads extract the addressed bytes
// from the 32-bit register, big-endian as seen by the SPARC.
func (p *APB) Read(addr uint32, size Size) (uint32, int, error) {
	r := p.lookup(addr)
	if r == nil {
		return 0, p.cost(), &BusError{Addr: addr}
	}
	word, err := r.device.ReadReg((addr - r.base) &^ 3)
	if err != nil {
		return 0, p.cost(), err
	}
	switch size {
	case SizeWord:
		return word, p.cost(), nil
	case SizeHalf:
		shift := (2 - addr&2) * 8
		return word >> shift & 0xFFFF, p.cost(), nil
	default:
		shift := (3 - addr&3) * 8
		return word >> shift & 0xFF, p.cost(), nil
	}
}

// Write implements Slave. Sub-word writes read-modify-write the 32-bit
// register, matching the word-only APB data path.
func (p *APB) Write(addr uint32, val uint32, size Size) (int, error) {
	r := p.lookup(addr)
	if r == nil {
		return p.cost(), &BusError{Addr: addr, Write: true}
	}
	off := (addr - r.base) &^ 3
	word := val
	if size != SizeWord {
		cur, err := r.device.ReadReg(off)
		if err != nil {
			return p.cost(), err
		}
		switch size {
		case SizeHalf:
			shift := (2 - addr&2) * 8
			mask := uint32(0xFFFF) << shift
			word = cur&^mask | val<<shift&mask
		default:
			shift := (3 - addr&3) * 8
			mask := uint32(0xFF) << shift
			word = cur&^mask | val<<shift&mask
		}
	}
	if err := r.device.WriteReg(off, word); err != nil {
		return p.cost(), err
	}
	return p.cost(), nil
}

// ReadBurst implements Slave; the APB has no burst support, so bursts
// degrade to singles (the bridge breaks them up).
func (p *APB) ReadBurst(addr uint32, dst []byte) (int, error) {
	return ReadBurstSingles(p, addr, dst)
}
