package ahbadapter

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"liquidarch/internal/amba"
	"liquidarch/internal/mem"
)

func newAdapter(t *testing.T) (*Adapter, *mem.Controller) {
	t.Helper()
	ctrl := mem.NewController(mem.NewSDRAM(1 << 20))
	port, err := ctrl.Port("leon")
	if err != nil {
		t.Fatal(err)
	}
	return New(port), ctrl
}

func TestSingleWordRoundTrip(t *testing.T) {
	a, _ := newAdapter(t)
	for _, addr := range []uint32{0, 4, 8, 12, 100} {
		if _, err := a.Write(addr, 0x1000+addr, amba.SizeWord); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []uint32{0, 4, 8, 12, 100} {
		v, _, err := a.Read(addr, amba.SizeWord)
		if err != nil || v != 0x1000+addr {
			t.Errorf("Read(%#x) = %#x, %v", addr, v, err)
		}
	}
}

func TestSubWordAccess(t *testing.T) {
	a, _ := newAdapter(t)
	if _, err := a.Write(0, 0xAABBCCDD, amba.SizeWord); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(4, 0x11223344, amba.SizeWord); err != nil {
		t.Fatal(err)
	}
	// Bytes across both 32-bit halves of the 64-bit word.
	wantBytes := map[uint32]uint32{0: 0xAA, 1: 0xBB, 2: 0xCC, 3: 0xDD, 4: 0x11, 5: 0x22, 6: 0x33, 7: 0x44}
	for addr, want := range wantBytes {
		if v, _, _ := a.Read(addr, amba.SizeByte); v != want {
			t.Errorf("byte read %d = %#x, want %#x", addr, v, want)
		}
	}
	for addr, want := range map[uint32]uint32{0: 0xAABB, 2: 0xCCDD, 4: 0x1122, 6: 0x3344} {
		if v, _, _ := a.Read(addr, amba.SizeHalf); v != want {
			t.Errorf("half read %d = %#x, want %#x", addr, v, want)
		}
	}
	// Sub-word writes merge into the 64-bit word.
	if _, err := a.Write(5, 0xEE, amba.SizeByte); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := a.Read(4, amba.SizeWord); v != 0x11EE3344 {
		t.Errorf("after byte write = %#x", v)
	}
	if _, err := a.Write(2, 0x9876, amba.SizeHalf); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := a.Read(0, amba.SizeWord); v != 0xAABB9876 {
		t.Errorf("after half write = %#x", v)
	}
}

// TestWriteIsRMW verifies the §3.2 claim: every 32-bit write costs two
// handshakes (one read, one write), "significantly impairing
// performance" relative to a read.
func TestWriteIsRMW(t *testing.T) {
	a, ctrl := newAdapter(t)
	ctrl.ResetStats()
	wc, err := a.Write(0, 1, amba.SizeWord)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 2 {
		t.Errorf("write performed %d handshakes, want 2 (read-modify-write)", got)
	}
	ctrl.ResetStats()
	_, rc, err := a.Read(0, amba.SizeWord)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 1 {
		t.Errorf("read performed %d handshakes, want 1", got)
	}
	if wc <= rc {
		t.Errorf("write cost %d not greater than read cost %d", wc, rc)
	}
	if a.Stats().RMWCycles == 0 {
		t.Error("RMWCycles not accounted")
	}
}

// TestBurstBeatsSingles verifies that a 4-word line fill through one
// declared burst is cheaper than four individual reads — the reason the
// adapter always uses a short burst.
func TestBurstBeatsSingles(t *testing.T) {
	a, _ := newAdapter(t)
	burst, err := a.ReadBurst(0, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	singles := 0
	for i := 0; i < 4; i++ {
		_, c, err := a.Read(uint32(i)*4, amba.SizeWord)
		if err != nil {
			t.Fatal(err)
		}
		singles += c
	}
	if burst >= singles {
		t.Errorf("4-word burst (%d cycles) not cheaper than singles (%d)", burst, singles)
	}
}

// TestLongBurstExtraHandshakes: sequential bursts needing more than 4
// 32-bit words require at least one additional handshake (§3.2).
func TestLongBurstExtraHandshakes(t *testing.T) {
	a, ctrl := newAdapter(t)
	ctrl.ResetStats()
	if _, err := a.ReadBurst(0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 1 {
		t.Fatalf("4-word burst used %d handshakes, want 1", got)
	}
	ctrl.ResetStats()
	if _, err := a.ReadBurst(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 2 {
		t.Errorf("8-word burst used %d handshakes, want 2", got)
	}
	ctrl.ResetStats()
	if _, err := a.ReadBurst(0, make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 2 {
		t.Errorf("5-word burst used %d handshakes, want 2", got)
	}
}

func TestUnalignedBurstStart(t *testing.T) {
	a, _ := newAdapter(t)
	for i := uint32(0); i < 8; i++ {
		if _, err := a.Write(i*4, i+1, amba.SizeWord); err != nil {
			t.Fatal(err)
		}
	}
	// Start at a word that is the high half of a 64-bit word.
	line := make([]byte, 16)
	if _, err := a.ReadBurst(4, line); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if w := binary.BigEndian.Uint32(line[i*4:]); w != uint32(i)+2 {
			t.Errorf("word %d = %d, want %d", i, w, i+2)
		}
	}
	if a.Stats().WastedWords == 0 {
		t.Error("unaligned burst should waste fetched words")
	}
}

func TestConfigurableBurstWords(t *testing.T) {
	a, ctrl := newAdapter(t)
	a.BurstWords = 8
	ctrl.ResetStats()
	if _, err := a.ReadBurst(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Requests; got != 1 {
		t.Errorf("8-word burst with BurstWords=8 used %d handshakes, want 1", got)
	}
	a.BurstWords = 0
	if _, err := a.ReadBurst(0, make([]byte, 16)); err == nil {
		t.Error("BurstWords=0 accepted")
	}
}

// Property: any sequence of aligned word writes is read back exactly,
// via both single reads and bursts.
func TestReadBackProperty(t *testing.T) {
	a, _ := newAdapter(t)
	f := func(seed uint32, vals []uint32) bool {
		if len(vals) > 32 {
			vals = vals[:32]
		}
		base := seed % 1024 * 4
		for i, v := range vals {
			if _, err := a.Write(base+uint32(i)*4, v, amba.SizeWord); err != nil {
				return false
			}
		}
		got := make([]byte, 4*len(vals))
		if _, err := a.ReadBurst(base, got); err != nil {
			return false
		}
		for i := range vals {
			if binary.BigEndian.Uint32(got[i*4:]) != vals[i] {
				return false
			}
			v, _, err := a.Read(base+uint32(i)*4, amba.SizeWord)
			if err != nil || v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsReset(t *testing.T) {
	a, _ := newAdapter(t)
	a.Read(0, amba.SizeWord)
	a.Write(0, 1, amba.SizeWord)
	a.ReadBurst(0, make([]byte, 16))
	st := a.Stats()
	if st.SingleReads != 1 || st.SingleWrites != 1 || st.BurstChunks != 1 {
		t.Errorf("stats = %+v", st)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Error("ResetStats left counters")
	}
}
