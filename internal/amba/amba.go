// Package amba models the two on-chip buses of the LEON processor
// system: the AMBA AHB high-performance backbone connecting the
// processor, the memory system and the APB bridge, and the AMBA APB
// low-bandwidth peripheral bus (The paper, §2.3 and [10]).
//
// The model is transaction-level with cycle accounting rather than
// signal-level: each access returns the number of bus clock cycles it
// consumed, including arbitration, the address phase and slave wait
// states. Only the features the LEON core actually uses are modelled
// (§2.4: single and incrementing bursts, transfer sizes ≤ 32 bits, no
// split transfers).
package amba

import (
	"encoding/binary"
	"fmt"
)

// Size is an AHB transfer size (HSIZE). Only byte, halfword and word are
// used by the LEON integer unit.
type Size uint8

// Transfer sizes in bytes.
const (
	SizeByte Size = 1
	SizeHalf Size = 2
	SizeWord Size = 4
)

// BusError reports an access to an address no slave claims (AHB ERROR
// response). The CPU maps it to a data/instruction access exception.
type BusError struct {
	Addr  uint32
	Write bool
}

func (e *BusError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("amba: bus error: %s at unmapped address %#08x", kind, e.Addr)
}

// AlignmentError reports a transfer whose address is not a multiple of
// its size. The CPU maps it to mem_address_not_aligned.
type AlignmentError struct {
	Addr uint32
	Size Size
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("amba: unaligned %d-byte access at %#08x", e.Size, e.Addr)
}

// Slave is the bus-facing interface of an AHB slave. Wait counts are
// slave wait states only; the bus adds its own address-phase and
// arbitration cycles.
type Slave interface {
	// Read returns the value at addr, zero-extended to 32 bits.
	Read(addr uint32, size Size) (val uint32, wait int, err error)
	// Write stores the low size bytes of val at addr.
	Write(addr uint32, val uint32, size Size) (wait int, err error)
	// ReadBurst performs an incrementing word burst starting at addr,
	// filling dst with len(dst)/4 words in big-endian byte order, as
	// they sit in memory and in a cache line. len(dst) is a multiple of
	// 4. Slaves without native burst support can delegate to
	// ReadBurstSingles.
	ReadBurst(addr uint32, dst []byte) (wait int, err error)
}

// ReadBurstSingles implements ReadBurst as a sequence of single word
// reads, for slaves with no native burst support (each beat pays the
// slave's full access latency, which is exactly the handshake cost the
// paper's adapter exists to avoid).
func ReadBurstSingles(s Slave, addr uint32, dst []byte) (int, error) {
	total := 0
	for i := 0; i+4 <= len(dst); i += 4 {
		v, wait, err := s.Read(addr+uint32(i), SizeWord)
		if err != nil {
			return total, err
		}
		binary.BigEndian.PutUint32(dst[i:], v)
		total += wait + 1
	}
	return total, nil
}

// Region is an address window claimed by a slave on the AHB.
type Region struct {
	Name  string
	Base  uint32
	Size  uint32
	Slave Slave
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// Stats accumulates AHB traffic counters.
type Stats struct {
	Reads      uint64 // single read transfers
	Writes     uint64 // single write transfers
	Bursts     uint64 // burst transactions
	BurstWords uint64 // words moved by bursts
	WaitCycles uint64 // slave wait states observed, failed transfers included
	BusErrors  uint64
}

// AHB is the high-performance system backbone. The LEON processor is
// the only bus master in the Liquid processor system (the network side
// reaches memory through the controller's own port, §2.4), so
// arbitration is modelled as a fixed single-cycle grant.
type AHB struct {
	regions []Region
	stats   Stats

	// GrantCycles is charged once per transaction for arbitration and
	// the address phase.
	GrantCycles int
}

// NewAHB returns an empty bus with the default 1-cycle grant.
func NewAHB() *AHB {
	return &AHB{GrantCycles: 1}
}

// Map attaches slave to the window [base, base+size). Windows must not
// overlap existing ones.
func (b *AHB) Map(name string, base, size uint32, s Slave) error {
	if size == 0 {
		return fmt.Errorf("amba: region %q has zero size", name)
	}
	nr := Region{Name: name, Base: base, Size: size, Slave: s}
	for i := range b.regions {
		r := &b.regions[i]
		if base < r.Base+r.Size && r.Base < base+size {
			return fmt.Errorf("amba: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, base, base+size, r.Name, r.Base, r.Base+r.Size)
		}
	}
	b.regions = append(b.regions, nr)
	return nil
}

// Lookup returns the region containing addr, or nil.
func (b *AHB) Lookup(addr uint32) *Region {
	for i := range b.regions {
		if b.regions[i].Contains(addr) {
			return &b.regions[i]
		}
	}
	return nil
}

// Regions returns the mapped address windows (for diagnostics).
func (b *AHB) Regions() []Region {
	out := make([]Region, len(b.regions))
	copy(out, b.regions)
	return out
}

// Stats returns a snapshot of the traffic counters.
func (b *AHB) Stats() Stats { return b.stats }

// ResetStats zeroes the traffic counters.
func (b *AHB) ResetStats() { b.stats = Stats{} }

func checkAlign(addr uint32, size Size) error {
	if addr&(uint32(size)-1) != 0 { // sizes are powers of two
		return &AlignmentError{Addr: addr, Size: size}
	}
	return nil
}

// Read performs a single transfer and returns the value and total bus
// cycles consumed.
func (b *AHB) Read(addr uint32, size Size) (uint32, int, error) {
	if err := checkAlign(addr, size); err != nil {
		return 0, 0, err
	}
	r := b.Lookup(addr)
	if r == nil {
		b.stats.BusErrors++
		return 0, b.GrantCycles, &BusError{Addr: addr}
	}
	v, wait, err := r.Slave.Read(addr-r.Base, size)
	b.stats.WaitCycles += uint64(wait)
	if err != nil {
		b.stats.BusErrors++
		return 0, b.GrantCycles + wait, err
	}
	b.stats.Reads++
	return v, b.GrantCycles + wait + 1, nil
}

// Write performs a single transfer and returns total bus cycles.
func (b *AHB) Write(addr uint32, val uint32, size Size) (int, error) {
	if err := checkAlign(addr, size); err != nil {
		return 0, err
	}
	r := b.Lookup(addr)
	if r == nil {
		b.stats.BusErrors++
		return b.GrantCycles, &BusError{Addr: addr, Write: true}
	}
	wait, err := r.Slave.Write(addr-r.Base, val, size)
	b.stats.WaitCycles += uint64(wait)
	if err != nil {
		b.stats.BusErrors++
		return b.GrantCycles + wait, err
	}
	b.stats.Writes++
	return b.GrantCycles + wait + 1, nil
}

// ReadBurst performs an incrementing word burst (the only burst kind the
// LEON uses for line fills, §2.4) into dst, len(dst)/4 big-endian words,
// and returns total bus cycles. The burst must not cross a region
// boundary.
func (b *AHB) ReadBurst(addr uint32, dst []byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if len(dst)&3 != 0 {
		return 0, fmt.Errorf("amba: burst of %d bytes is not whole words", len(dst))
	}
	if err := checkAlign(addr, SizeWord); err != nil {
		return 0, err
	}
	r := b.Lookup(addr)
	if r == nil || !r.Contains(addr+uint32(len(dst))-1) {
		b.stats.BusErrors++
		return b.GrantCycles, &BusError{Addr: addr}
	}
	wait, err := r.Slave.ReadBurst(addr-r.Base, dst)
	b.stats.WaitCycles += uint64(wait)
	if err != nil {
		b.stats.BusErrors++
		return b.GrantCycles + wait, err
	}
	b.stats.Bursts++
	b.stats.BurstWords += uint64(len(dst) / 4)
	return b.GrantCycles + wait, nil
}
