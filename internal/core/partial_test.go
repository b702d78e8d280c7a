package core

import (
	"testing"

	"liquidarch/internal/cache"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
)

// TestPartialReconfiguration: a cache-only change takes the partial
// (plugin-swap) path and leaves the processor live — no reset, same
// SoC, continuous cycle counter.
func TestPartialReconfiguration(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	socBefore := s.SoC()
	cyclesBefore := socBefore.Cycles()

	cfg := s.Config()
	cfg.DCache.SizeBytes = 8 << 10
	hit, err := s.Reconfigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("fresh config hit")
	}
	if !s.ReconfigureStatus().Partial {
		t.Fatal("cache-only change did not take the partial path")
	}
	if swaps(s, "partial") != 1 {
		t.Errorf("partials = %d", swaps(s, "partial"))
	}
	if s.SoC() != socBefore {
		t.Error("partial reconfiguration replaced the SoC")
	}
	if s.SoC().Cycles() < cyclesBefore {
		t.Error("cycle counter reset by partial reconfiguration")
	}
	if got := s.SoC().DCache.Config().SizeBytes; got != 8<<10 {
		t.Errorf("live D$ size = %d", got)
	}
	// The system still runs programs.
	img, err := s.CompileC("int main() { return 5; }", lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(img, 0)
	if err != nil || res.Faulted {
		t.Fatalf("run after partial swap: %v %+v", err, res)
	}
	if v, _ := s.ExitValue(img); v != 5 {
		t.Errorf("exit = %d", v)
	}
}

// TestPartialDisabled: the ablation knob forces the full path.
func TestPartialDisabled(t *testing.T) {
	s, err := New(leon.DefaultConfig(), Options{Synth: smallSynth, DisablePartial: true})
	if err != nil {
		t.Fatal(err)
	}
	socBefore := s.SoC()
	cfg := s.Config()
	cfg.DCache.SizeBytes = 8 << 10
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.ReconfigureStatus().Partial {
		t.Error("partial path used despite DisablePartial")
	}
	if s.SoC() == socBefore {
		t.Error("full reconfiguration kept the SoC")
	}
}

// TestNonCacheChangeIsFull: touching the CPU config cannot be partial.
func TestNonCacheChangeIsFull(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	cfg := s.Config()
	cfg.CPU.MAC = true
	cfg.DCache.SizeBytes = 2 << 10
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.ReconfigureStatus().Partial {
		t.Error("CPU change took the partial path")
	}
	if swaps(s, "partial") != 0 {
		t.Error("partial counter moved")
	}
}

// TestPartialSwapFlushesDirtyLines: a write-back data cache must write
// its dirty lines to memory before the module is replaced.
func TestPartialSwapFlushesDirtyLines(t *testing.T) {
	cfg := leon.DefaultConfig()
	cfg.DCache.Write = cache.WriteBack
	s := newSystem(t, cfg)
	img, err := s.CompileC(`
int mark = 0;
int main() {
    mark = 0xABCD;
    return mark;
}`, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	// The store may still be dirty in the write-back cache. Swap the
	// cache modules and verify memory has the value.
	next := s.Config()
	next.DCache.SizeBytes = 8 << 10
	next.DCache.Write = cache.WriteBack
	if _, err := s.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if !s.ReconfigureStatus().Partial {
		t.Fatal("expected partial path")
	}
	v, err := s.ExitValue(img)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Errorf("exit value after dirty swap = %#x, want 0xABCD", v)
	}
}

func TestOnlyCachesDiffer(t *testing.T) {
	a := leon.DefaultConfig()
	b := a
	if !onlyCachesDiffer(a, b) {
		t.Error("identical configs not cache-only")
	}
	b.DCache.SizeBytes = 8 << 10
	b.ICache.Assoc = 1
	if !onlyCachesDiffer(a, b) {
		t.Error("cache-only change not detected")
	}
	b = a
	b.CPU.NWindows = 16
	if onlyCachesDiffer(a, b) {
		t.Error("window change reported as cache-only")
	}
	b = a
	b.BurstWords = 8
	if onlyCachesDiffer(a, b) {
		t.Error("adapter change reported as cache-only")
	}
}
