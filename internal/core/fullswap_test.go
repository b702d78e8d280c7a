package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"liquidarch/internal/ahbadapter"
	"liquidarch/internal/amba"
	"liquidarch/internal/leon"
	"liquidarch/internal/mem"
)

// TestFullSwapHandsOverBoardMemory: a full swap reprograms the fabric
// but keeps the board's SRAM and SDRAM — the same chips, contents
// intact — while the new SDRAM controller and adapter count from zero
// and the outgoing actor is retired.
func TestFullSwapHandsOverBoardMemory(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	defer s.Close()
	old, oldSoC := s.AsyncCtrl(), s.SoC()

	sramPat := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	if err := old.WriteMemory(leon.DefaultLoadAddr, sramPat); err != nil {
		t.Fatal(err)
	}
	// The SDRAM pattern goes in over the processor's bus, so the old
	// fabric's controller and adapter counters move.
	const sdramAt = leon.SDRAMBase + 0x1000
	sdramPat := []uint32{0xcafef00d, 0x12345678}
	var oldCtrl mem.ControllerStats
	var oldAdapter ahbadapter.Stats
	var werr error
	if err := old.Do(func(c *leon.Controller) {
		for i, w := range sdramPat {
			if _, err := c.SoC().Bus.Write(sdramAt+uint32(4*i), w, amba.SizeWord); err != nil {
				werr = err
			}
		}
		oldCtrl, oldAdapter = c.SoC().SDRAMCtrl.Stats(), c.SoC().Adapter.Stats()
	}); err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if oldCtrl.Requests == 0 || oldAdapter.SingleWrites == 0 {
		t.Fatalf("SDRAM writes left the old counters at zero: %+v %+v", oldCtrl, oldAdapter)
	}

	cfg := s.Config()
	cfg.CPU.NWindows = 16
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.LastReconfigureWasPartial() {
		t.Fatal("a window-count change took the partial path")
	}
	newSoC := s.SoC()
	if newSoC == oldSoC {
		t.Fatal("full swap kept the old SoC")
	}
	if newSoC.SRAM != oldSoC.SRAM || newSoC.SDRAM != oldSoC.SDRAM {
		t.Error("full swap replaced the board memories")
	}
	var newCtrl mem.ControllerStats
	var newAdapter ahbadapter.Stats
	if err := s.AsyncCtrl().Do(func(c *leon.Controller) {
		newCtrl, newAdapter = c.SoC().SDRAMCtrl.Stats(), c.SoC().Adapter.Stats()
	}); err != nil {
		t.Fatal(err)
	}
	if newCtrl != (mem.ControllerStats{}) || newAdapter != (ahbadapter.Stats{}) {
		t.Errorf("new fabric's counters start at %+v %+v, want zero", newCtrl, newAdapter)
	}

	got, err := s.ReadMemory(leon.DefaultLoadAddr, len(sramPat))
	if err != nil || !bytes.Equal(got, sramPat) {
		t.Errorf("SRAM after full swap = %x, %v; want %x", got, err, sramPat)
	}
	got, err = s.ReadMemory(sdramAt, 4*len(sdramPat))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range sdramPat {
		if v := binary.BigEndian.Uint32(got[4*i:]); v != w {
			t.Errorf("SDRAM word %d after full swap = %#x, want %#x", i, v, w)
		}
	}

	if _, err := old.CollectResult(); !errors.Is(err, leon.ErrClosed) {
		t.Errorf("CollectResult on the retired actor = %v, want ErrClosed", err)
	}
	if err := old.LoadProgram(leon.DefaultLoadAddr, sramPat); !errors.Is(err, leon.ErrClosed) {
		t.Errorf("LoadProgram on the retired actor = %v, want ErrClosed", err)
	}
}

// TestFullSwapRefusesResize: the memories are fixed by the board, so a
// configuration with other sizes cannot be loaded onto it. The refusal
// names the size and comes before anything is torn down: the active
// configuration, its actor and the memory contents are untouched.
func TestFullSwapRefusesResize(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	defer s.Close()
	pat := []byte{9, 8, 7, 6}
	if err := s.AsyncCtrl().WriteMemory(leon.DefaultLoadAddr, pat); err != nil {
		t.Fatal(err)
	}
	before, actor := s.Config(), s.AsyncCtrl()
	for _, tc := range []struct {
		name   string
		resize func(*leon.Config)
		size   string
	}{
		{"sram", func(c *leon.Config) { c.SRAMSize = 1 << 20 }, "1048576 bytes of SRAM"},
		{"sdram", func(c *leon.Config) { c.SDRAMSize = 16 << 20 }, "16777216 bytes of SDRAM"},
	} {
		cfg := before
		tc.resize(&cfg)
		if _, err := s.Reconfigure(cfg); err == nil || !strings.Contains(err.Error(), tc.size) {
			t.Errorf("%s resize: err = %v, want one naming %q", tc.name, err, tc.size)
		}
	}
	if s.Config() != before || s.AsyncCtrl() != actor {
		t.Error("a refused resize replaced the active configuration or actor")
	}
	if got, err := actor.ReadMemory(leon.DefaultLoadAddr, len(pat)); err != nil || !bytes.Equal(got, pat) {
		t.Errorf("memory after refused resize = %x, %v; want %x", got, err, pat)
	}
}

// TestFullSwapKeepsAcknowledgedWrites: a user-port write that the
// outgoing actor acknowledged while a full swap was under way is in the
// memory the new SoC runs on. The writer keeps the actor handle it
// fetched until that actor refuses a write with ErrClosed, so its
// writes race every swap; the refused ones are exempt.
func TestFullSwapKeepsAcknowledgedWrites(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	defer s.Close()
	cfgs := [2]leon.Config{leon.DefaultConfig(), leon.DefaultConfig()}
	cfgs[1].CPU.NWindows = 16

	const base = leon.DefaultLoadAddr
	words := (s.Config().SRAMSize - (base - leon.SRAMBase)) / 4
	stop := make(chan struct{})
	done := make(chan []uint32)
	go func() {
		// want[i] is the last value acknowledged at word i (0: none).
		want := make([]uint32, words)
		defer func() { done <- want }()
		a := s.AsyncCtrl()
		for n := uint32(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := int(n) % words
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], n)
			switch err := a.WriteMemory(base+uint32(4*i), w[:]); {
			case err == nil:
				want[i] = n
			case errors.Is(err, leon.ErrClosed):
				a = s.AsyncCtrl()
			default:
				t.Errorf("write %d: %v", n, err)
				return
			}
		}
	}()
	var swapErr error
	for i := 0; i < 200 && swapErr == nil; i++ {
		_, swapErr = s.Reconfigure(cfgs[(i+1)%2])
	}
	close(stop)
	want := <-done
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	if s.PartialReconfigurations() != 0 {
		t.Fatal("window-count swaps took the partial path")
	}

	got, err := s.ReadMemory(base, 4*words)
	if err != nil {
		t.Fatal(err)
	}
	acked, lost := 0, 0
	for i, n := range want {
		if n == 0 {
			continue
		}
		acked++
		if v := binary.BigEndian.Uint32(got[4*i:]); v != n {
			if lost == 0 {
				t.Errorf("word %#x reads %d, want acknowledged write %d", base+4*i, v, n)
			}
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d acknowledged writes lost across 200 full swaps", lost, acked)
	}
	if acked == 0 {
		t.Error("no write was acknowledged during the swaps")
	}
	t.Logf("%d acknowledged writes across 200 full swaps", acked)
}
