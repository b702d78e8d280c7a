package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"liquidarch/internal/amba"
	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
)

// recordRun compiles src, runs it on a default LEON with a recorder
// attached, and returns the recorder.
func recordRun(t *testing.T, src string) *Recorder {
	t.Helper()
	rec := NewRecorder()
	runAttached(t, src, rec.Attach, rec.Detach)
	return rec
}

// runAttached compiles src and runs it on a default LEON between
// attach and detach.
func runAttached(t *testing.T, src string, attach func(*cpu.CPU), detach func()) {
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
	attach(soc.CPU)
	defer detach()
	res, err := ctrl.Execute(img.Entry, 0)
	if err != nil || res.Faulted {
		t.Fatalf("run: %v %+v", err, res)
	}
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

// TestAttachTwiceThenElsewhere: attaching an attached recorder again,
// or to another CPU, detaches it first — the second attach does not
// chain the recorder onto itself (which recursed on the first access),
// and moving to another CPU restores the first CPU's prior hook.
func TestAttachTwiceThenElsewhere(t *testing.T) {
	var socs [2]*leon.SoC
	for i := range socs {
		soc, err := leon.New(leon.DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		socs[i] = soc
	}
	var priorCalls int
	socs[0].CPU.OnMem = func(uint32, amba.Size, bool) { priorCalls++ }
	rec := NewRecorder()
	rec.Attach(socs[0].CPU)
	rec.Attach(socs[0].CPU)
	socs[0].CPU.OnMem(4, amba.SizeWord, false)
	if priorCalls != 1 || len(rec.MemEvents()) != 1 {
		t.Fatalf("after a second attach one access reached the prior hook %d times and the recorder %d times",
			priorCalls, len(rec.MemEvents()))
	}
	rec.Attach(socs[1].CPU)
	socs[0].CPU.OnMem(8, amba.SizeWord, false)
	if priorCalls != 2 || len(rec.MemEvents()) != 1 {
		t.Errorf("first CPU's prior hook not restored: prior calls %d, recorded %d", priorCalls, len(rec.MemEvents()))
	}
	socs[1].CPU.OnMem(12, amba.SizeWord, true)
	if len(rec.MemEvents()) != 2 || priorCalls != 2 {
		t.Errorf("second CPU's access: recorded %d, prior calls %d", len(rec.MemEvents()), priorCalls)
	}
	rec.Detach()
	if socs[1].CPU.OnMem != nil {
		t.Error("second CPU keeps a hook after Detach")
	}
}

// TestRecorderResetMidRun: a Reset from inside the run (here, from a
// chained memory hook at the 100th access) discards what came before
// it, and the per-PC counts still sum to the instruction count: the
// profile and the instruction counter both restart at the same block
// boundary.
func TestRecorderResetMidRun(t *testing.T) {
	full := recordRun(t, sweepProgram)
	rec := NewRecorder()
	var seen int
	runAttached(t, sweepProgram, func(c *cpu.CPU) {
		c.OnMem = func(uint32, amba.Size, bool) {
			if seen++; seen == 100 {
				rec.Reset()
			}
		}
		rec.Attach(c)
	}, rec.Detach)
	if got, want := len(rec.MemEvents()), len(full.MemEvents())-100; got != want {
		t.Errorf("%d events after the reset, want %d", got, want)
	}
	var sum uint64
	for _, h := range rec.HotSpots(0) {
		sum += h.Count
	}
	if sum != rec.Instructions() || sum == 0 || sum >= full.Instructions() {
		t.Errorf("per-PC counts sum to %d, instruction count %d (whole run %d)", sum, rec.Instructions(), full.Instructions())
	}
}

// TestSummaryMatchesRecorder: a summary of a run reports what a stored
// stream of the same run yields — the instruction stream, the read and
// write split, the dropped count and the 32-byte working set — with
// the cap above and below the run's access count.
func TestSummaryMatchesRecorder(t *testing.T) {
	for _, maxEvents := range []int{SummaryMaxEvents, 1000} {
		rec, sum := NewRecorder(), NewSummary()
		rec.MaxEvents, sum.maxEvents = maxEvents, uint64(maxEvents)
		runAttached(t, sweepProgram, rec.Attach, rec.Detach)
		runAttached(t, sweepProgram, sum.Attach, sum.Detach)
		var reads, writes int
		for _, e := range rec.MemEvents() {
			if e.Write {
				writes++
			} else {
				reads++
			}
		}
		recLines, recBytes := rec.WorkingSet(SummaryLineBytes)
		sumLines, sumBytes := sum.WorkingSet()
		if sum.Events() != len(rec.MemEvents()) || sum.Reads() != reads || sum.Writes() != writes ||
			sum.Dropped() != rec.Dropped() || sumLines != recLines || sumBytes != recBytes {
			t.Errorf("cap %d: summary %d events (%d reads, %d writes, %d dropped, %d lines), recorder %d (%d, %d, %d, %d)",
				maxEvents, sum.Events(), sum.Reads(), sum.Writes(), sum.Dropped(), sumLines,
				len(rec.MemEvents()), reads, writes, rec.Dropped(), recLines)
		}
		if sum.Instructions() != rec.Instructions() || !reflect.DeepEqual(sum.HotSpots(0), rec.HotSpots(0)) {
			t.Errorf("cap %d: instruction streams differ (%d vs %d instructions)", maxEvents, sum.Instructions(), rec.Instructions())
		}
		if maxEvents == 1000 && sum.Dropped() == 0 {
			t.Error("the small cap dropped nothing")
		}
	}
}

// TestSummaryWorkingSetExact feeds seeded accesses — clustered and
// scattered, unaligned, at page edges and at the top of the address
// space — to a summary and a recorder on one CPU, and requires the same
// distinct-line count.
func TestSummaryWorkingSetExact(t *testing.T) {
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Attach(soc.CPU)
	sum := NewSummary()
	sum.Attach(soc.CPU)
	rng := rand.New(rand.NewSource(1))
	edges := []uint32{0, 31, 32, 1<<17 - 1, 1 << 17, 0x40000000, 0x60003FFF, 0xFFFFFFE0, 0xFFFFFFFF}
	for i := 0; i < 50000; i++ {
		var addr uint32
		switch i % 4 {
		case 0:
			addr = edges[rng.Intn(len(edges))]
		case 1:
			addr = 0x60004000 + uint32(rng.Intn(4096))
		case 2:
			addr = rng.Uint32()
		default:
			addr = 0x40000000 + uint32(rng.Intn(1<<20))
		}
		soc.CPU.OnMem(addr, amba.SizeWord, i%3 == 0)
	}
	sum.Detach()
	rec.Detach()
	wantLines, _ := rec.WorkingSet(SummaryLineBytes)
	if lines, _ := sum.WorkingSet(); lines != wantLines || sum.Events() != len(rec.MemEvents()) {
		t.Errorf("summary: %d lines over %d events, recorder: %d lines over %d", lines, sum.Events(), wantLines, len(rec.MemEvents()))
	}
}
