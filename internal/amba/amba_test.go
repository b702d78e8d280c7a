package amba

import (
	"encoding/binary"
	"errors"
	"testing"
)

// ramSlave is a trivial word-addressable slave used by the bus tests.
type ramSlave struct {
	words map[uint32]uint32
	wait  int
}

func newRAM(wait int) *ramSlave {
	return &ramSlave{words: make(map[uint32]uint32), wait: wait}
}

func (r *ramSlave) Read(addr uint32, size Size) (uint32, int, error) {
	w := r.words[addr&^3]
	switch size {
	case SizeWord:
		return w, r.wait, nil
	case SizeHalf:
		return w >> ((2 - addr&2) * 8) & 0xFFFF, r.wait, nil
	default:
		return w >> ((3 - addr&3) * 8) & 0xFF, r.wait, nil
	}
}

func (r *ramSlave) Write(addr uint32, val uint32, size Size) (int, error) {
	cur := r.words[addr&^3]
	switch size {
	case SizeWord:
		cur = val
	case SizeHalf:
		shift := (2 - addr&2) * 8
		cur = cur&^(0xFFFF<<shift) | val&0xFFFF<<shift
	default:
		shift := (3 - addr&3) * 8
		cur = cur&^(0xFF<<shift) | val&0xFF<<shift
	}
	r.words[addr&^3] = cur
	return r.wait, nil
}

func (r *ramSlave) ReadBurst(addr uint32, dst []byte) (int, error) {
	return ReadBurstSingles(r, addr, dst)
}

func TestMapOverlapRejected(t *testing.T) {
	b := NewAHB()
	if err := b.Map("a", 0x1000, 0x1000, newRAM(0)); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ base, size uint32 }{
		{0x1000, 0x1000}, // identical
		{0x1800, 0x1000}, // tail overlap
		{0x0800, 0x1000}, // head overlap
		{0x0000, 0x10000},
	}
	for _, c := range cases {
		if err := b.Map("b", c.base, c.size, newRAM(0)); err == nil {
			t.Errorf("Map(%#x, %#x) succeeded, want overlap error", c.base, c.size)
		}
	}
	// Adjacent is fine.
	if err := b.Map("c", 0x2000, 0x1000, newRAM(0)); err != nil {
		t.Errorf("adjacent Map failed: %v", err)
	}
	if err := b.Map("zero", 0x5000, 0, newRAM(0)); err == nil {
		t.Error("zero-size Map succeeded")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	b := NewAHB()
	ram := newRAM(2)
	if err := b.Map("ram", 0x40000000, 0x1000, ram); err != nil {
		t.Fatal(err)
	}
	if cycles, err := b.Write(0x40000010, 0xDEADBEEF, SizeWord); err != nil || cycles != 1+2+1 {
		t.Fatalf("Write: cycles=%d err=%v", cycles, err)
	}
	v, cycles, err := b.Read(0x40000010, SizeWord)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("Read = %#x, %v", v, err)
	}
	if cycles != 1+2+1 {
		t.Errorf("Read cycles = %d, want 4 (grant+wait+data)", cycles)
	}
	// Sub-word access extracts big-endian bytes.
	if v, _, _ := b.Read(0x40000010, SizeByte); v != 0xDE {
		t.Errorf("byte 0 = %#x, want 0xDE", v)
	}
	if v, _, _ := b.Read(0x40000013, SizeByte); v != 0xEF {
		t.Errorf("byte 3 = %#x, want 0xEF", v)
	}
	if v, _, _ := b.Read(0x40000012, SizeHalf); v != 0xBEEF {
		t.Errorf("half 2 = %#x, want 0xBEEF", v)
	}
}

func TestBusErrorOnUnmapped(t *testing.T) {
	b := NewAHB()
	if err := b.Map("ram", 0, 0x1000, newRAM(0)); err != nil {
		t.Fatal(err)
	}
	_, _, err := b.Read(0x2000, SizeWord)
	var be *BusError
	if !errors.As(err, &be) {
		t.Fatalf("Read unmapped: err = %v, want BusError", err)
	}
	if be.Addr != 0x2000 || be.Write {
		t.Errorf("BusError = %+v", be)
	}
	if _, err := b.Write(0x2000, 0, SizeWord); err == nil {
		t.Error("Write unmapped succeeded")
	}
	if b.Stats().BusErrors != 2 {
		t.Errorf("BusErrors = %d, want 2", b.Stats().BusErrors)
	}
}

func TestAlignmentChecks(t *testing.T) {
	b := NewAHB()
	if err := b.Map("ram", 0, 0x1000, newRAM(0)); err != nil {
		t.Fatal(err)
	}
	var ae *AlignmentError
	if _, _, err := b.Read(2, SizeWord); !errors.As(err, &ae) {
		t.Errorf("unaligned word read: %v", err)
	}
	if _, _, err := b.Read(1, SizeHalf); !errors.As(err, &ae) {
		t.Errorf("unaligned half read: %v", err)
	}
	if _, err := b.Write(3, 0, SizeWord); !errors.As(err, &ae) {
		t.Errorf("unaligned word write: %v", err)
	}
	if _, err := b.ReadBurst(6, make([]byte, 8)); !errors.As(err, &ae) {
		t.Errorf("unaligned burst: %v", err)
	}
	// Bytes are always aligned.
	if _, _, err := b.Read(3, SizeByte); err != nil {
		t.Errorf("byte read: %v", err)
	}
}

func TestReadBurst(t *testing.T) {
	b := NewAHB()
	ram := newRAM(1)
	if err := b.Map("ram", 0x100, 0x100, ram); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8; i++ {
		if _, err := b.Write(0x100+i*4, i+1, SizeWord); err != nil {
			t.Fatal(err)
		}
	}
	line := make([]byte, 16)
	if _, err := b.ReadBurst(0x100, line); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if w := binary.BigEndian.Uint32(line[i*4:]); w != uint32(i+1) {
			t.Errorf("burst word %d = %d, want %d", i, w, i+1)
		}
	}
	// Burst crossing out of the region is a bus error.
	if _, err := b.ReadBurst(0x1F8, make([]byte, 16)); err == nil {
		t.Error("cross-boundary burst succeeded")
	}
	// A burst of a partial word is rejected.
	if _, err := b.ReadBurst(0x100, make([]byte, 6)); err == nil {
		t.Error("burst of 6 bytes succeeded")
	}
	// Empty burst is a no-op.
	if n, err := b.ReadBurst(0x100, nil); n != 0 || err != nil {
		t.Errorf("empty burst: n=%d err=%v", n, err)
	}
	st := b.Stats()
	if st.Bursts != 1 || st.BurstWords != 4 {
		t.Errorf("stats = %+v, want 1 burst of 4 words", st)
	}
}

func TestStatsAndReset(t *testing.T) {
	b := NewAHB()
	if err := b.Map("ram", 0, 0x1000, newRAM(3)); err != nil {
		t.Fatal(err)
	}
	b.Read(0, SizeWord)
	b.Write(4, 1, SizeWord)
	st := b.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.WaitCycles != 6 {
		t.Errorf("stats = %+v", st)
	}
	b.ResetStats()
	if b.Stats() != (Stats{}) {
		t.Errorf("ResetStats left %+v", b.Stats())
	}
}

// failSlave fails every transfer after wait states of its own, as an
// SDRAM port does when a burst fails on a later chunk.
type failSlave struct{ wait int }

var errSlave = errors.New("slave failed")

func (f failSlave) Read(uint32, Size) (uint32, int, error)  { return 0, f.wait, errSlave }
func (f failSlave) Write(uint32, uint32, Size) (int, error) { return f.wait, errSlave }
func (f failSlave) ReadBurst(uint32, []byte) (int, error)   { return f.wait, errSlave }

// TestFailedTransferCountsWaitStates: a transfer that fails in its
// slave charges the slave's wait states both in the cycles it returns
// and in Stats.WaitCycles, for every transfer kind.
func TestFailedTransferCountsWaitStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(b *AHB) (int, error)
	}{
		{"read", func(b *AHB) (int, error) { _, c, err := b.Read(0, SizeWord); return c, err }},
		{"write", func(b *AHB) (int, error) { return b.Write(0, 1, SizeWord) }},
		{"burst", func(b *AHB) (int, error) { return b.ReadBurst(0, make([]byte, 16)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewAHB()
			if err := b.Map("bad", 0, 0x1000, failSlave{wait: 5}); err != nil {
				t.Fatal(err)
			}
			cycles, err := tc.do(b)
			if !errors.Is(err, errSlave) {
				t.Fatalf("err = %v, want the slave's", err)
			}
			if cycles != b.GrantCycles+5 {
				t.Errorf("cycles = %d, want grant + 5 wait states", cycles)
			}
			if st := b.Stats(); st.WaitCycles != 5 || st.BusErrors != 1 {
				t.Errorf("stats = %+v, want 5 wait cycles and 1 bus error", st)
			}
		})
	}
}

func TestLookupAndRegions(t *testing.T) {
	b := NewAHB()
	if err := b.Map("rom", 0, 0x1000, newRAM(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Map("ram", 0x40000000, 0x1000, newRAM(0)); err != nil {
		t.Fatal(err)
	}
	if r := b.Lookup(0x40000FFF); r == nil || r.Name != "ram" {
		t.Errorf("Lookup(0x40000FFF) = %v", r)
	}
	if r := b.Lookup(0x40001000); r != nil {
		t.Errorf("Lookup past end = %v, want nil", r)
	}
	if got := len(b.Regions()); got != 2 {
		t.Errorf("Regions() has %d entries, want 2", got)
	}
}

func TestAPBWordAndSubWord(t *testing.T) {
	apb := NewAPB()
	dev := &regDevice{regs: map[uint32]uint32{}}
	if err := apb.Map("uart", 0x70, 0x10, dev); err != nil {
		t.Fatal(err)
	}
	if _, err := apb.Write(0x70, 0xAABBCCDD, SizeWord); err != nil {
		t.Fatal(err)
	}
	v, cycles, err := apb.Read(0x70, SizeWord)
	if err != nil || v != 0xAABBCCDD {
		t.Fatalf("Read = %#x, %v", v, err)
	}
	if cycles != apb.cost() {
		t.Errorf("cycles = %d, want %d", cycles, apb.cost())
	}
	// Sub-word read.
	if v, _, _ := apb.Read(0x71, SizeByte); v != 0xBB {
		t.Errorf("byte read = %#x, want 0xBB", v)
	}
	if v, _, _ := apb.Read(0x72, SizeHalf); v != 0xCCDD {
		t.Errorf("half read = %#x, want 0xCCDD", v)
	}
	// Sub-word write merges.
	if _, err := apb.Write(0x73, 0x11, SizeByte); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := apb.Read(0x70, SizeWord); v != 0xAABBCC11 {
		t.Errorf("after byte write: %#x, want 0xAABBCC11", v)
	}
	// Unmapped offset errors.
	if _, _, err := apb.Read(0x200, SizeWord); err == nil {
		t.Error("unmapped APB read succeeded")
	}
	// Overlapping device map rejected.
	if err := apb.Map("dup", 0x78, 0x10, dev); err == nil {
		t.Error("overlapping APB Map succeeded")
	}
}

type regDevice struct {
	regs map[uint32]uint32
}

func (d *regDevice) ReadReg(off uint32) (uint32, error)  { return d.regs[off], nil }
func (d *regDevice) WriteReg(off uint32, v uint32) error { d.regs[off] = v; return nil }

func TestAPBBurstDegradesToSingles(t *testing.T) {
	apb := NewAPB()
	dev := &regDevice{regs: map[uint32]uint32{0: 1, 4: 2}}
	if err := apb.Map("d", 0, 0x10, dev); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 8)
	cycles, err := apb.ReadBurst(0, line)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(line) != 1 || binary.BigEndian.Uint32(line[4:]) != 2 {
		t.Errorf("burst = %x", line)
	}
	if cycles < 2*apb.cost() {
		t.Errorf("burst cycles = %d, want ≥ %d (two singles)", cycles, 2*apb.cost())
	}
}
