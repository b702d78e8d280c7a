package trace

import (
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/cache"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
)

// recordRun compiles src, runs it on a default LEON with a recorder
// attached, and returns the recorder.
func recordRun(t *testing.T, src string) *Recorder {
	t.Helper()
	asmSrc, err := lcc.Compile(src, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Build(asmSrc, link.Options{})
	if err != nil {
		t.Fatal(err)
	}
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.LoadProgram(img.Origin, img.Code); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Attach(soc.CPU)
	defer rec.Detach()
	res, err := ctrl.Execute(img.Entry, 0)
	if err != nil || res.Faulted {
		t.Fatalf("run: %v %+v", err, res)
	}
	return rec
}

// sweepProgram is the paper's Fig. 7 kernel: stride-32 indices into a
// 4 KB array touch 32 cache lines spread over 4 KB, so a direct-mapped
// cache below 4 KB conflict-misses on every access while a 4 KB+ cache
// only takes the 32 cold misses.
const sweepProgram = `
int count[1024];
int main() {
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 65536; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    return x;
}`

func TestRecorderCapturesRun(t *testing.T) {
	rec := recordRun(t, sweepProgram)
	if rec.Instructions() == 0 {
		t.Fatal("no instructions recorded")
	}
	// With register-allocated locals, the data stream is essentially
	// one array read per iteration (2048 iterations).
	if len(rec.MemEvents()) < 2048 {
		t.Errorf("only %d memory events (want one per iteration)", len(rec.MemEvents()))
	}
	if rec.Dropped() != 0 {
		t.Errorf("%d events dropped", rec.Dropped())
	}
	var sum uint64
	for _, h := range rec.HotSpots(0) {
		sum += h.Count
	}
	if sum != rec.Instructions() {
		t.Errorf("per-PC counts sum to %d, instruction count %d", sum, rec.Instructions())
	}
}

func TestHotSpotsFindTheLoop(t *testing.T) {
	rec := recordRun(t, sweepProgram)
	hs := rec.HotSpots(5)
	if len(hs) != 5 {
		t.Fatalf("%d hot spots", len(hs))
	}
	// The hottest PC runs ≥ 2048 times (the loop body).
	if hs[0].Count < 2048 {
		t.Errorf("hottest PC runs %d times", hs[0].Count)
	}
	// Descending order.
	for i := 1; i < len(hs); i++ {
		if hs[i].Count > hs[i-1].Count {
			t.Error("hot spots not sorted")
		}
	}
	// Asking for everything works too.
	if all := rec.HotSpots(0); len(all) < 5 {
		t.Errorf("HotSpots(0) = %d entries", len(all))
	}
}

func TestWorkingSetMatchesArray(t *testing.T) {
	rec := recordRun(t, sweepProgram)
	lines, bytes := rec.WorkingSet(32)
	// The kernel touches 32 array lines; locals add a few.
	if lines < 32 || lines > 64 {
		t.Errorf("working set = %d lines", lines)
	}
	if bytes != lines*32 {
		t.Errorf("bytes = %d", bytes)
	}
	// Default line size kicks in for bad input.
	if l2, _ := rec.WorkingSet(0); l2 != lines {
		t.Errorf("WorkingSet(0) = %d, want %d", l2, lines)
	}
}

// TestSweepShowsFig8Cliff: replaying the recorded stream through the
// paper's cache sizes must show the miss cliff at the 4 KB working
// set.
func TestSweepShowsFig8Cliff(t *testing.T) {
	rec := recordRun(t, sweepProgram)
	var cfgs []cache.Config
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		cfgs = append(cfgs, cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1})
	}
	results, err := rec.SweepCaches(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	// Small caches miss much more than large ones.
	if results[0].MissRatio < 5*results[3].MissRatio {
		t.Errorf("1KB miss ratio %.4f not ≫ 8KB %.4f",
			results[0].MissRatio, results[3].MissRatio)
	}
	// Monotone non-increasing.
	for i := 1; i < len(results); i++ {
		if results[i].MissRatio > results[i-1].MissRatio+1e-9 {
			t.Errorf("miss ratio not monotone: %v", results)
		}
	}
	// ≥4KB cache: only the 32 cold misses remain.
	if results[2].MissRatio > 0.05 {
		t.Errorf("4KB miss ratio %.4f, want near cold-only", results[2].MissRatio)
	}
}

func TestReplayDirect(t *testing.T) {
	events := []MemEvent{
		{Addr: 0, Size: 4}, {Addr: 0, Size: 4}, // miss, hit
		{Addr: 64, Size: 4, Write: true},
		{Addr: 3, Size: 1}, {Addr: 6, Size: 2},
		{Addr: 5, Size: 7}, // bogus size normalizes to word
	}
	st, err := Replay(events, cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Invalid cache config surfaces.
	if _, err := Replay(events, cache.Config{SizeBytes: 3}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMaxEventsCap(t *testing.T) {
	rec := NewRecorder()
	rec.MaxEvents = 10
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(soc.CPU)
	for i := 0; i < 50; i++ {
		soc.CPU.OnMem(uint32(i*4), 4, false)
	}
	rec.Detach()
	if len(rec.MemEvents()) != 10 {
		t.Errorf("stored %d events", len(rec.MemEvents()))
	}
	if rec.Dropped() != 40 {
		t.Errorf("dropped = %d", rec.Dropped())
	}
	rec.Reset()
	if len(rec.MemEvents()) != 0 || rec.Dropped() != 0 || rec.Instructions() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestAttachChainsAndDetachRestoresHooks(t *testing.T) {
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var priorCalls int
	prior := func(addr uint32, size amba.Size, write bool) { priorCalls++ }
	soc.CPU.OnMem = prior
	rec := NewRecorder()
	rec.Attach(soc.CPU)
	soc.CPU.OnMem(4, amba.SizeWord, false)
	if priorCalls != 1 {
		t.Error("prior hook not chained")
	}
	if len(rec.MemEvents()) != 1 {
		t.Error("recorder missed chained event")
	}
	rec.Detach()
	soc.CPU.OnMem(8, amba.SizeWord, false)
	if priorCalls != 2 {
		t.Error("prior hook not restored after Detach")
	}
	if len(rec.MemEvents()) != 1 {
		t.Error("recorder still attached after Detach")
	}
	rec.Detach() // idempotent
}
