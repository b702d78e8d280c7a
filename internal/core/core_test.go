package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"liquidarch/internal/archgen"
	"liquidarch/internal/cache"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/synth"
)

var smallSynth = synth.Options{BitstreamBytes: 256}

const fig7Source = `
int count[1024];
int result = 0;
int main() {
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 65536; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    result = x;
    return x;
}`

func newSystem(t *testing.T, cfg leon.Config) *System {
	t.Helper()
	s, err := New(cfg, Options{Synth: smallSynth})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileRunExitValue(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img, err := s.CompileC("int main() { return 1234; }", lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(img, 0)
	if err != nil || res.Faulted {
		t.Fatalf("run: %v %+v", err, res)
	}
	v, err := s.ExitValue(img)
	if err != nil || v != 1234 {
		t.Fatalf("exit value = %d, %v", v, err)
	}
}

func TestBuildASM(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img, err := s.BuildASM("main:\n\tretl\n\tmov 9, %o0\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ExitValue(img); v != 9 {
		t.Errorf("exit = %d", v)
	}
}

// TestReconfigurePreservesMemory: the board memories live outside the
// FPGA, so program and data survive an image swap.
func TestReconfigurePreservesMemory(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img, err := s.CompileC("int main() { return 77; }", lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	cfg.DCache.SizeBytes = 16 << 10
	hit, err := s.Reconfigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("fresh config claimed a cache hit")
	}
	if s.Reconfigurations() != 1 || s.LastReconfigureHit() {
		t.Error("reconfiguration bookkeeping wrong")
	}
	// Exit value written before the swap is still readable.
	if v, err := s.ExitValue(img); err != nil || v != 77 {
		t.Errorf("exit value after reconfigure = %d, %v", v, err)
	}
	// And the program re-runs on the new fabric without reloading.
	res, err := s.Controller().Execute(img.Entry, 0)
	if err != nil || res.Faulted {
		t.Fatalf("re-run after reconfigure: %v %+v", err, res)
	}
	// Swapping back hits the cache.
	hit, err = s.Reconfigure(leon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("return to cached config missed")
	}
}

// TestCacheSizeChangesCycles is E1 at the System level: the same
// binary runs much slower on the 1 KB configuration.
func TestCacheSizeChangesCycles(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img, err := s.CompileC(fig7Source, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[int]uint64{}
	for _, size := range []int{1 << 10, 16 << 10} {
		cfg := s.Config()
		cfg.DCache.SizeBytes = size
		if _, err := s.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(img, 0)
		if err != nil || res.Faulted {
			t.Fatalf("size %d: %v %+v", size, err, res)
		}
		cycles[size] = res.Cycles
	}
	// Every Fig. 7 iteration conflict-misses at 1 KB and hits at
	// 16 KB; amortized over the loop's other work that is a ≥20%
	// cycle-count step (the miss counts themselves go 100% → ~0).
	if cycles[1<<10] < cycles[16<<10]*6/5 {
		t.Errorf("1KB (%d cycles) not clearly slower than 16KB (%d)",
			cycles[1<<10], cycles[16<<10])
	}
}

// TestAutoTune runs the whole Fig. 1 loop: measure, analyze, pick a
// configuration, reconfigure, re-measure — and must find a real
// speedup for the conflict-missing kernel.
func TestAutoTune(t *testing.T) {
	cfg := leon.DefaultConfig()
	cfg.DCache.SizeBytes = 1 << 10 // deliberately bad starting point
	s := newSystem(t, cfg)
	img, err := s.CompileC(fig7Source, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.AutoTune(img, archgen.PaperSpace(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TunedCfg.DCache.SizeBytes < 4<<10 {
		t.Errorf("autotune picked %d-byte D$", rep.TunedCfg.DCache.SizeBytes)
	}
	if rep.Speedup < 1.2 {
		t.Errorf("speedup = %.2f, want > 1.2", rep.Speedup)
	}
	if len(rep.Candidates) != 5 {
		t.Errorf("%d candidates", len(rep.Candidates))
	}
	if rep.Baseline.Cycles <= rep.Tuned.Cycles {
		t.Error("tuned run not faster in cycles")
	}
	if s.Reconfigurations() != 1 {
		t.Errorf("reconfigurations = %d", s.Reconfigurations())
	}
}

// TestNetworkReconfigure drives CmdReconfigure/CmdGetConfig through
// the platform, as a remote client would.
func TestNetworkReconfigure(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	p := s.Platform()

	// GetConfig reports the active spec.
	resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdGetConfig}.Marshal())
	if len(resps) != 1 {
		t.Fatalf("%d responses", len(resps))
	}
	var spec Spec
	if err := json.Unmarshal(resps[0].Body, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.DCacheBytes != 4<<10 {
		t.Errorf("reported D$ = %d", spec.DCacheBytes)
	}

	// Reconfigure to 8 KB over the wire. The ack is immediate — a miss
	// reports its ticket state in the spare fields — and the client
	// follows up with CmdReconfigStatus until terminal.
	// Synthesis completion is signaled through the reconfigure wake
	// hook (this test plays the server's role); each wake is answered
	// with one status poll, which also pumps the swap.
	wake := make(chan struct{}, 1)
	if !p.SetReconfigWakeHook(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}) {
		t.Fatal("platform does not support asynchronous reconfiguration")
	}
	blob, _ := json.Marshal(Spec{DCacheBytes: 8 << 10})
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdReconfigure, Body: blob}.Marshal())
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil {
		t.Fatalf("reconfigure ack: %v", err)
	}
	st := netproto.ReconfigAckInfo(rep)
	for i := 0; !st.Terminal(); i++ {
		if i > 100 {
			t.Fatalf("reconfigure never reached a terminal state: %+v", st)
		}
		select {
		case <-wake:
		case <-time.After(100 * time.Millisecond):
			// Fallback pump: the wake fires on synthesis completion; a
			// swap deferred past that point lands on a later poll.
		}
		resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdReconfigStatus}.Marshal())
		if st, err = netproto.ParseReconfigStatusResp(resps[0].Body); err != nil {
			t.Fatalf("reconfig status: %v", err)
		}
	}
	if st.State != netproto.ReconfigApplied {
		t.Fatalf("reconfigure failed: %+v", st)
	}
	if got := s.Config().DCache.SizeBytes; got != 8<<10 {
		t.Errorf("D$ after network reconfigure = %d", got)
	}
	// Bad spec errors cleanly.
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdReconfigure, Body: []byte("{bad json")}.Marshal())
	if resps[0].Command != netproto.CmdError {
		t.Error("bad spec did not error")
	}
	blob, _ = json.Marshal(Spec{DCacheBytes: 3000})
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdReconfigure, Body: blob}.Marshal())
	if resps[0].Command != netproto.CmdError {
		t.Error("invalid config did not error")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cfg := leon.DefaultConfig()
	cfg.CPU.MAC = true
	cfg.CPU.PipelineDepth = 6
	cfg.DCache.Write = cache.WriteBack
	cfg.DCache.Assoc = 2
	spec := SpecFromConfig(cfg)
	got, err := spec.ToConfig(leon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU.MAC != true || got.CPU.Depth() != 6 ||
		got.DCache.Write != cache.WriteBack || got.DCache.Assoc != 2 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Depth 6 implies a branch penalty in the timing table.
	if got.CPU.Timing.Branch != 1 {
		t.Errorf("timing not derived: branch = %d", got.CPU.Timing.Branch)
	}
	// Partial specs only touch named fields.
	partial := Spec{DCacheBytes: 2 << 10}
	got, err = partial.ToConfig(leon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.DCache.SizeBytes != 2<<10 || got.ICache != leon.DefaultConfig().ICache {
		t.Errorf("partial spec: %+v", got)
	}
	// JSON form is stable.
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if *back.MAC != true || back.DCacheBytes != 4<<10 {
		t.Errorf("json round trip: %+v", back)
	}
}

func TestUARTPlumbing(t *testing.T) {
	var uart bytes.Buffer
	s, err := New(leon.DefaultConfig(), Options{UARTOut: &uart, Synth: smallSynth})
	if err != nil {
		t.Fatal(err)
	}
	img, err := s.CompileC(`
int main() {
    *(unsigned*)0x80000070 = 'x';
    return 0;
}`, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	if uart.String() != "x" {
		t.Errorf("uart = %q", uart.String())
	}
	// UART survives reconfiguration.
	cfg := s.Config()
	cfg.DCache.SizeBytes = 2 << 10
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	if uart.String() != "xx" {
		t.Errorf("uart after reconfigure = %q", uart.String())
	}
	// And a full swap: the reloaded fabric's UART drives the same sink.
	cfg.CPU.NWindows = 16
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.LastReconfigureWasPartial() {
		t.Fatal("window change took the partial path")
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	if uart.String() != "xxx" {
		t.Errorf("uart after full reconfigure = %q", uart.String())
	}
}

func TestMACReconfigurationEnablesBuiltin(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	src := `int main() { return __mac(5, 6, 7); }`
	img, err := s.CompileC(src, lcc.Options{MAC: true})
	if err != nil {
		t.Fatal(err)
	}
	// On the base config the MAC encoding is illegal → fault.
	res, err := s.Run(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Faulted || res.TT != 0x02 {
		t.Fatalf("expected illegal-instruction fault, got %+v", res)
	}
	// Reconfigure with the MAC unit: same binary now works.
	cfg := s.Config()
	cfg.CPU.MAC = true
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(img, 0)
	if err != nil || res.Faulted {
		t.Fatalf("MAC run: %v %+v", err, res)
	}
	if v, _ := s.ExitValue(img); v != 47 {
		t.Errorf("__mac(5,6,7) = %d, want 47", v)
	}
}

func TestActiveImageAndManager(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img := s.ActiveImage()
	if img == nil || img.Key != synth.ConfigKey(leon.DefaultConfig()) {
		t.Error("active image wrong")
	}
	if s.Manager().Cache().Len() != 1 {
		t.Errorf("cache len = %d", s.Manager().Cache().Len())
	}
	if s.SoC() == nil || s.Controller() == nil {
		t.Error("accessors returned nil")
	}
}

func TestExitValueWithoutCrt0(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	img, err := s.CompileC("int main() { return 0; }", lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img.Symbols = map[string]uint32{} // simulate a standalone image
	if _, err := s.ExitValue(img); err == nil {
		t.Error("missing __exit_value not reported")
	}
}
