package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"liquidarch/internal/amba"
)

func TestSRAMReadWrite(t *testing.T) {
	s := NewSRAM(1024)
	if s.Size() != 1024 {
		t.Fatalf("Size = %d", s.Size())
	}
	if _, err := s.Write(0, 0x11223344, amba.SizeWord); err != nil {
		t.Fatal(err)
	}
	v, wait, err := s.Read(0, amba.SizeWord)
	if err != nil || v != 0x11223344 {
		t.Fatalf("Read = %#x, %v", v, err)
	}
	if wait != s.WaitStates {
		t.Errorf("wait = %d, want %d", wait, s.WaitStates)
	}
	// Big-endian byte order.
	if v, _, _ := s.Read(0, amba.SizeByte); v != 0x11 {
		t.Errorf("byte 0 = %#x, want 0x11 (big-endian)", v)
	}
	if v, _, _ := s.Read(2, amba.SizeHalf); v != 0x3344 {
		t.Errorf("half 2 = %#x", v)
	}
	// Sub-word writes.
	if _, err := s.Write(1, 0xAA, amba.SizeByte); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Read(0, amba.SizeWord); v != 0x11AA3344 {
		t.Errorf("after byte write = %#x", v)
	}
	if _, err := s.Write(2, 0xBBCC, amba.SizeHalf); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Read(0, amba.SizeWord); v != 0x11AABBCC {
		t.Errorf("after half write = %#x", v)
	}
}

func TestSRAMBounds(t *testing.T) {
	s := NewSRAM(16)
	if _, _, err := s.Read(16, amba.SizeByte); err == nil {
		t.Error("read past end succeeded")
	}
	if _, _, err := s.Read(13, amba.SizeWord); err == nil {
		t.Error("word read overlapping end succeeded")
	}
	if _, err := s.Write(0xFFFFFFFC, 0, amba.SizeWord); err == nil {
		t.Error("write far past end succeeded")
	}
	if _, err := s.ReadBurst(8, make([]byte, 16)); err == nil {
		t.Error("burst past end succeeded")
	}
}

func TestSRAMBurstTiming(t *testing.T) {
	s := NewSRAM(256)
	for i := uint32(0); i < 8; i++ {
		s.Write(i*4, i, amba.SizeWord)
	}
	line := make([]byte, 32)
	cycles, err := s.ReadBurst(0, line)
	if err != nil {
		t.Fatal(err)
	}
	want := s.WaitStates + 8*s.BurstWait
	if cycles != want {
		t.Errorf("burst cycles = %d, want %d", cycles, want)
	}
	for i := 0; i < 8; i++ {
		if w := binary.BigEndian.Uint32(line[i*4:]); w != uint32(i) {
			t.Errorf("word %d = %d", i, w)
		}
	}
	// A pipelined burst must beat 8 singles.
	single := 8 * (s.WaitStates + 1)
	if cycles >= single {
		t.Errorf("burst (%d) not faster than singles (%d)", cycles, single)
	}
}

func TestSRAMPokePeek(t *testing.T) {
	s := NewSRAM(64)
	prog := []byte{1, 2, 3, 4, 5}
	if err := s.Poke(10, prog); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := s.Peek(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prog) {
		t.Errorf("Peek = %v", got)
	}
	if err := s.Poke32(0, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	// Poke32 and bus reads agree on byte order.
	if v, _, _ := s.Read(0, amba.SizeWord); v != 0xCAFEBABE {
		t.Errorf("bus read after Poke32 = %#x", v)
	}
	if v, err := s.Peek32(0); err != nil || v != 0xCAFEBABE {
		t.Errorf("Peek32 = %#x, %v", v, err)
	}
	if err := s.Poke(62, prog); err == nil {
		t.Error("Poke past end succeeded")
	}
	if err := s.Peek(62, got); err == nil {
		t.Error("Peek past end succeeded")
	}
}

// Property: for any word value and aligned address, a bus write followed
// by a bus read returns the same value, and Peek32 agrees.
func TestSRAMWriteReadProperty(t *testing.T) {
	s := NewSRAM(4096)
	f := func(addr uint16, val uint32) bool {
		a := uint32(addr) &^ 3 % 4096
		if _, err := s.Write(a, val, amba.SizeWord); err != nil {
			return false
		}
		v, _, err := s.Read(a, amba.SizeWord)
		if err != nil || v != val {
			return false
		}
		p, err := s.Peek32(a)
		return err == nil && p == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSDRAMControllerPorts(t *testing.T) {
	c := NewController(NewSDRAM(1 << 20))
	for i := 0; i < 3; i++ {
		if _, err := c.Port("m"); err != nil {
			t.Fatalf("port %d: %v", i, err)
		}
	}
	if _, err := c.Port("extra"); err == nil {
		t.Error("fourth port granted; FPX controller supports 3 modules")
	}
}

func TestSDRAMBurstRoundTrip(t *testing.T) {
	c := NewController(NewSDRAM(1 << 16))
	p, err := c.Port("leon")
	if err != nil {
		t.Fatal(err)
	}
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18}
	wc, err := p.WriteBurst(64, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.HandshakeCycles + 2*c.BeatCycles; wc != want {
		t.Errorf("write cycles = %d, want %d", wc, want)
	}
	dst := make([]byte, 16)
	rc, err := p.ReadBurst(64, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Errorf("read back %x", dst)
	}
	if want := c.HandshakeCycles + 2*c.BeatCycles; rc != want {
		t.Errorf("read cycles = %d, want %d", rc, want)
	}
	st := c.Stats()
	if st.Requests != 2 || st.ReadBeats != 2 || st.WriteBeats != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSDRAMArbitrationSwitchCost(t *testing.T) {
	c := NewController(NewSDRAM(1 << 16))
	a, _ := c.Port("leon")
	b, _ := c.Port("net")
	buf := make([]byte, 8)
	base, err := a.ReadBurst(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := a.ReadBurst(0, buf)
	other, _ := b.ReadBurst(0, buf)
	if same != base {
		t.Errorf("same-port re-grant cost %d, want %d", same, base)
	}
	if other != base+c.ArbCycles {
		t.Errorf("cross-port grant cost %d, want %d", other, base+c.ArbCycles)
	}
	if c.Stats().ArbSwitch != 1 {
		t.Errorf("ArbSwitch = %d, want 1", c.Stats().ArbSwitch)
	}
}

func TestSDRAMBurstValidation(t *testing.T) {
	c := NewController(NewSDRAM(1024))
	p, _ := c.Port("leon")
	if _, err := p.ReadBurst(4, make([]byte, 8)); err == nil {
		t.Error("misaligned burst succeeded")
	}
	if _, err := p.ReadBurst(0, make([]byte, 8*(c.MaxBurst+1))); err == nil {
		t.Error("over-length burst succeeded")
	}
	if _, err := p.ReadBurst(1024-8, make([]byte, 16)); err == nil {
		t.Error("out-of-range burst succeeded")
	}
	if _, err := p.ReadBurst(0, make([]byte, 12)); err == nil {
		t.Error("burst of a partial 64-bit word succeeded")
	}
	if _, err := p.WriteBurst(3, make([]byte, 8)); err == nil {
		t.Error("misaligned write burst succeeded")
	}
	c.ResetStats()
	if c.Stats() != (ControllerStats{}) {
		t.Error("ResetStats left counters")
	}
}

func TestSDRAMSizeRounding(t *testing.T) {
	if got := NewSDRAM(13).Size(); got != 16 {
		t.Errorf("Size = %d, want 16", got)
	}
}
