package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"liquidarch/internal/fpx"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/netproto"
	"liquidarch/internal/trace"
	"liquidarch/internal/tracing"
)

// TestNetworkTraceReport: programs run through the platform are traced
// and the summary is pullable via CmdTraceReport.
func TestNetworkTraceReport(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	p := s.Platform()

	// Before any run: a clean error.
	resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
	if resps[0].Command != netproto.CmdError {
		t.Fatal("trace before any run did not error")
	}

	// Load and start through the platform (as a remote client would).
	img, err := s.CompileC(`
int buf[64];
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 64; i++) x += buf[i];
    return x;
}`, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadNet(p, img)
	runNet(t, p, runDoneSignal(t, p), 0)

	// Pull the trace summary.
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
	if resps[0].Command != netproto.CmdTraceReport|netproto.RespFlag {
		t.Fatalf("trace response command %#x", resps[0].Command)
	}
	var tr TraceReport
	if err := json.Unmarshal(resps[0].Body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Instructions == 0 || tr.MemEvents == 0 || len(tr.HotSpots) == 0 {
		t.Errorf("empty trace report: %+v", tr)
	}
	if tr.MemReads+tr.MemWrites != tr.MemEvents {
		t.Errorf("read/write split %d+%d != %d", tr.MemReads, tr.MemWrites, tr.MemEvents)
	}
	// The 64-int array plus locals: working set is a couple dozen lines.
	if tr.WorkingSetLines < 8 || tr.WorkingSetLines > 64 {
		t.Errorf("working set = %d lines", tr.WorkingSetLines)
	}
}

// fig7SDRAM is the paper's Fig. 7 kernel with its array in SDRAM,
// behind the AHB↔SDRAM adapter.
const fig7SDRAM = `
int main() {
    int *count = (int*)0x60004000;
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1024; i++)
        count[i] = i;
    for (i = 0; i < 65536; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    return x;
}`

// manyAccesses makes 2 data accesses per iteration over 600,000
// iterations: past the networked summary's 2^20-access cap.
const manyAccesses = `
int buf[64];
int main() {
    int i;
    for (i = 0; i < 600000; i++)
        buf[i & 63] = buf[i & 63] + i;
    return buf[5];
}`

// loadNet loads img through the platform, as a remote client would.
func loadNet(p *fpx.Platform, img *link.Image) {
	for _, ch := range netproto.ChunkImage(img.Origin, img.Code) {
		p.HandlePayload(netproto.Packet{Command: netproto.CmdLoadProgram, Body: ch.Marshal()}.Marshal())
	}
}

// runDoneSignal installs a run-done hook on p that signals the
// returned channel. Only networked runs may happen on p's system, each
// waited for before the next starts, so each completion is one signal.
func runDoneSignal(t testing.TB, p *fpx.Platform) <-chan struct{} {
	t.Helper()
	done := make(chan struct{}, 1)
	if !p.SetRunDoneHook(func() {
		select {
		case done <- struct{}{}:
		default:
		}
	}) {
		t.Fatal("controller does not support the run-done hook")
	}
	return done
}

// runNet starts entry through the platform (CmdStartLEON, the
// networked path; entry 0 is the loaded image's), waits for the
// completion signal on done — no sleep polling — and collects the run
// report with one CmdResult, as a remote client would.
func runNet(t testing.TB, p *fpx.Platform, done <-chan struct{}, entry uint32) netproto.RunReport {
	t.Helper()
	resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{Entry: entry}.Marshal()}.Marshal())
	if rep, err := netproto.ParseRunReport(resps[0].Body); err != nil || rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack: %v %+v", err, rep)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed")
	}
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdResult}.Marshal())
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil || rep.Status != netproto.StatusOK {
		t.Fatalf("result: %v %+v", err, rep)
	}
	return rep
}

// recorderReport builds CmdTraceReport's JSON from a stored data
// stream, as the node did before it summarized the stream online: the
// reference the served report must equal byte for byte.
func recorderReport(rec *trace.Recorder) ([]byte, error) {
	lines, bytes := rec.WorkingSet(32)
	rep := TraceReport{
		Instructions:    rec.Instructions(),
		MemEvents:       len(rec.MemEvents()),
		Dropped:         rec.Dropped(),
		WorkingSetLines: lines,
		WorkingSetBytes: bytes,
		HotSpots:        rec.HotSpots(10),
	}
	for _, e := range rec.MemEvents() {
		if e.Write {
			rep.MemWrites++
		} else {
			rep.MemReads++
		}
	}
	return json.Marshal(rep)
}

// recordInProcess runs img on s's board actor with a stored-stream
// recorder capped as the networked summary is.
func recordInProcess(s *System, img *link.Image) (leon.RunResult, *trace.Recorder, error) {
	if err := s.Load(img); err != nil {
		return leon.RunResult{}, nil, err
	}
	rec := trace.NewRecorder()
	rec.MaxEvents = trace.SummaryMaxEvents
	res, err := s.async().ExecuteOpts(img.Entry, 0, leon.RunOptions{
		Before: func(c *leon.Controller) { rec.Attach(c.SoC().CPU) },
		After:  func(*leon.Controller, leon.RunResult, time.Duration, error) { rec.Detach() },
	})
	return res, rec, err
}

// TestNetworkTraceMatchesInProcess: the report a run started through
// the platform (CmdStartLEON, the networked path) serves is byte-equal
// to the one a stored-stream recorder of the same image and
// configuration in process yields — on the boot configuration, after a
// partial and a full swap, and on a run past the 2^20-access cap — and
// the networked per-PC counts equal the recorder's, summing to the run
// report's instruction count.
func TestNetworkTraceMatchesInProcess(t *testing.T) {
	base := leon.DefaultConfig()
	netSys, refSys := newSystem(t, base), newSystem(t, base)
	p := netSys.Platform()
	fig7, err := netSys.CompileC(fig7SDRAM, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := netSys.CompileC(manyAccesses, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := runDoneSignal(t, p)

	partial := base
	partial.DCache.SizeBytes = 2 << 10
	full := partial
	full.CPU.NWindows = 16
	var loaded *link.Image
	for _, step := range []struct {
		name    string
		cfg     leon.Config
		partial bool
		img     *link.Image
	}{
		{"boot", base, false, fig7},
		{"partial swap", partial, true, fig7},
		{"full swap", full, false, fig7},
		{"past the cap", full, false, many},
	} {
		if step.cfg != netSys.Config() {
			for _, s := range []*System{netSys, refSys} {
				if _, err := s.Reconfigure(step.cfg); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if s.LastReconfigureWasPartial() != step.partial {
					t.Fatalf("%s: partial = %v", step.name, !step.partial)
				}
			}
		}
		img := step.img
		if img != loaded {
			loadNet(p, img)
			loaded = img
		}

		rep := runNet(t, p, done, img.Entry)
		resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
		served := resps[0].Body
		var tr TraceReport
		if err := json.Unmarshal(served, &tr); err != nil {
			t.Fatalf("%s: trace report: %v", step.name, err)
		}

		res, rec, err := recordInProcess(refSys, img)
		if err != nil || res.Faulted {
			t.Fatalf("%s: in-process run: %v %+v", step.name, err, res)
		}
		want, err := recorderReport(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Errorf("%s: served report differs from the stored stream's:\n got %s\nwant %s", step.name, served, want)
		}
		if (rec.Dropped() > 0) != (img == many) {
			t.Errorf("%s: %d accesses dropped", step.name, rec.Dropped())
		}

		netSys.traceMu.Lock()
		got := netSys.lastTrace.HotSpots(0)
		netSys.traceMu.Unlock()
		if !reflect.DeepEqual(got, rec.HotSpots(0)) {
			t.Errorf("%s: networked per-PC counts differ from the in-process run's", step.name)
		}
		var sum uint64
		for _, h := range got {
			sum += h.Count
		}
		if sum != tr.Instructions || sum != rep.Instructions || sum != res.Instructions {
			t.Errorf("%s: per-PC sum %d, trace report %d, run report %d, in-process run %d",
				step.name, sum, tr.Instructions, rep.Instructions, res.Instructions)
		}
	}
}

// exploreKernel is perfbench's explore kernel: Fig. 7 with its 4 KB
// array in SDRAM, initialised, then iters stride-32 reads.
func exploreKernel(iters int) string {
	return fmt.Sprintf(`
int main() {
    int *count = (int*)0x60004000;
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1024; i++)
        count[i] = (i ^ 1234) + 567;
    for (i = 0; i < %d; i = i + 32) {
        address = i %% 1024;
        x = x + count[address];
    }
    return x;
}`, iters*32)
}

// TestNetworkRunAllocations: recording a networked run costs memory
// per page of address space touched, not per access — a run of the
// explore kernel (4 KB D-cache) allocates at most 16 KB, at 8,192 and
// at 65,536 iterations alike. Each size takes the least of three runs
// after a warm-up, so a stray background allocation cannot fail it.
func TestNetworkRunAllocations(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	p := s.Platform()
	done := runDoneSignal(t, p)
	for _, iters := range []int{8192, 65536} {
		img, err := s.CompileC(exploreKernel(iters), lcc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		loadNet(p, img)
		runNet(t, p, done, img.Entry)
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runNet(t, p, done, img.Entry)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d iterations: %d bytes per run", iters, best)
		if best > 16<<10 {
			t.Errorf("%d iterations: a networked run allocates %d bytes, want at most 16 KB", iters, best)
		}
	}
}

// BenchmarkNetworkRunHooks times in-process runs of the explore kernel
// (8,192 iterations), alternating runs without hooks and with a
// networked run's hooks (the trace summary and run telemetry), and
// reports hooked over unhooked run time: what recording costs a
// networked run. One op is one run of each.
func BenchmarkNetworkRunHooks(b *testing.B) {
	s, err := New(leon.DefaultConfig(), Options{Synth: smallSynth})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	img, err := s.CompileC(exploreKernel(8192), lcc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Load(img); err != nil {
		b.Fatal(err)
	}
	var wall [2]time.Duration // unhooked, hooked
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hooked := range []bool{i%2 == 1, i%2 == 0} {
			opts := leon.RunOptions{}
			if hooked {
				opts = s.netRunOpts(tracing.Ctx{})
			}
			start := time.Now()
			if _, err := s.async().ExecuteOpts(img.Entry, 0, opts); err != nil {
				b.Fatal(err)
			}
			if hooked {
				wall[1] += time.Since(start)
			} else {
				wall[0] += time.Since(start)
			}
		}
	}
	b.ReportMetric(float64(wall[1])/float64(wall[0]), "hooked/unhooked")
}

// BenchmarkNoopRun times in-process runs of a program that returns at
// once, started and collected through the platform as a remote client
// would (CmdStartLEON, the run-done signal, CmdResult): the fixed cost
// of a run — the boot ROM's handoff and its FLUSH, the controller
// actor, the report — with next to no stepping.
func BenchmarkNoopRun(b *testing.B) {
	s, err := New(leon.DefaultConfig(), Options{Synth: smallSynth})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	img, err := s.CompileC("int main() { return 0; }", lcc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := s.Platform()
	done := runDoneSignal(b, p)
	loadNet(p, img)
	runNet(b, p, done, img.Entry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runNet(b, p, done, img.Entry)
	}
}
