// Package bench implements the experiment drivers that regenerate
// every table and figure of the paper's evaluation (§4), plus the
// ablation studies DESIGN.md calls out. The cmd/liquid-bench tool and
// the repository-level testing.B benchmarks both run these.
package bench

import (
	"fmt"
	"strings"

	"liquidarch/internal/ahbadapter"
	"liquidarch/internal/amba"
	"liquidarch/internal/cache"
	"liquidarch/internal/core"
	"liquidarch/internal/cpu"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/mem"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/synth"
)

// Fig7Source is the array-access benchmark of Fig. 7, verbatim in
// structure: a stride-32 index into a 4 KB array, wrapped mod 1024.
// The OCR of the paper lost the loop bound; 1048576 gives 32768
// iterations, enough to dwarf the cold-start transient.
const Fig7Source = `
int count[1024];
int result;

int main() {
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1048576; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    result = x;
    return x;
}`

// smallSynth keeps benchmark images small; utilization is unaffected.
var smallSynth = synth.Options{BitstreamBytes: 4096}

// Fig8Row is one line of the Fig. 8 table: running time of the Fig. 7
// program under one data-cache size.
type Fig8Row struct {
	DCacheBytes int
	Cycles      uint64
	Instrs      uint64
	Misses      uint64 // data-cache read misses during the run
	MissRatio   float64
	Millis      float64 // wall-clock at the synthesized frequency
}

// Fig8Sizes is the paper's sweep: 1-16 KB at 32 B lines, I$ fixed 1 KB.
var Fig8Sizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}

// Fig8Sweep reproduces Fig. 8/9: it compiles the Fig. 7 program once
// (the shared artifact) and measures its cycle count under each
// data-cache size, each point on its own SoC. workers bounds the
// worker pool (<= 0: one per CPU); the result table is identical for
// every worker count.
func Fig8Sweep(workers int) ([]Fig8Row, error) {
	img, err := buildC(Fig7Source)
	if err != nil {
		return nil, err
	}
	return forEachPoint(workers, Fig8Sizes, func(size int) (Fig8Row, error) {
		cfg := leon.DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1}
		res, soc, err := runPoint(cfg, img)
		if err != nil {
			return Fig8Row{}, err
		}
		if res.Faulted {
			return Fig8Row{}, fmt.Errorf("bench: fig8 run faulted at %d bytes (tt=%#x)", size, res.TT)
		}
		st := soc.DCache.Stats()
		util := synth.Estimate(cfg)
		return Fig8Row{
			DCacheBytes: size,
			Cycles:      res.Cycles,
			Instrs:      res.Instructions,
			Misses:      st.Misses,
			MissRatio:   st.MissRatio(),
			Millis:      float64(res.Cycles) / (util.FMaxMHz * 1e3),
		}, nil
	})
}

// buildC compiles and links a Liquid-C program for the default memory
// map: the one artifact a sweep shares across its points.
func buildC(src string) (*link.Image, error) {
	asmText, err := lcc.Compile(src, lcc.Options{})
	if err != nil {
		return nil, err
	}
	return link.Build(asmText, link.Options{})
}

// runPoint measures img on a freshly booted SoC of cfg, one point of a
// sweep: the board actor loads the image, zeroes the cache statistics
// and runs it. The SoC is returned after the actor is closed, so its
// statistics are the run's and the caller may read them directly.
func runPoint(cfg leon.Config, img *link.Image) (leon.RunResult, *leon.SoC, error) {
	soc, err := leon.New(cfg, nil)
	if err != nil {
		return leon.RunResult{}, nil, err
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		return leon.RunResult{}, nil, err
	}
	a := leon.NewAsyncController(ctrl)
	var res leon.RunResult
	if err = a.LoadProgram(img.Origin, img.Code); err == nil {
		// Do fails only on a closed actor, which Execute reports.
		_ = a.Do(func(*leon.Controller) {
			soc.ICache.ResetStats()
			soc.DCache.ResetStats()
		})
		res, err = a.Execute(img.Entry, 0)
	}
	a.Close()
	return res, soc, err
}

// Fig10Report reproduces the Fig. 10 device-utilization table for the
// base Liquid Processor System.
func Fig10Report() (synth.Utilization, synth.Device) {
	return synth.Estimate(leon.DefaultConfig()), synth.XCV2000E
}

// AdapterRow is one line of the §3.2 adapter experiment (E5).
type AdapterRow struct {
	Pattern    string
	Words      int
	Cycles     int
	Handshakes uint64
}

// AdapterExperiment measures the AHB↔SDRAM adapter behaviours §3.2
// reasons about: single reads, 4-word bursts vs per-word handshakes,
// long bursts needing extra handshakes, and the read-modify-write
// penalty on stores.
func AdapterExperiment() ([]AdapterRow, error) {
	newAdapter := func() (*ahbadapter.Adapter, *mem.Controller, error) {
		ctrl := mem.NewController(mem.NewSDRAM(1 << 20))
		port, err := ctrl.Port("leon")
		if err != nil {
			return nil, nil, err
		}
		return ahbadapter.New(port), ctrl, nil
	}
	var rows []AdapterRow
	run := func(pattern string, words int, f func(a *ahbadapter.Adapter) (int, error)) error {
		a, ctrl, err := newAdapter()
		if err != nil {
			return err
		}
		cycles, err := f(a)
		if err != nil {
			return err
		}
		rows = append(rows, AdapterRow{
			Pattern:    pattern,
			Words:      words,
			Cycles:     cycles,
			Handshakes: ctrl.Stats().Requests,
		})
		return nil
	}
	if err := run("read 32-bit single", 1, func(a *ahbadapter.Adapter) (int, error) {
		_, c, err := a.Read(0, amba.SizeWord)
		return c, err
	}); err != nil {
		return nil, err
	}
	if err := run("read 4 words, singles", 4, func(a *ahbadapter.Adapter) (int, error) {
		total := 0
		for i := 0; i < 4; i++ {
			_, c, err := a.Read(uint32(i)*4, amba.SizeWord)
			if err != nil {
				return total, err
			}
			total += c
		}
		return total, nil
	}); err != nil {
		return nil, err
	}
	if err := run("read 4 words, one burst", 4, func(a *ahbadapter.Adapter) (int, error) {
		return a.ReadBurst(0, make([]byte, 16))
	}); err != nil {
		return nil, err
	}
	if err := run("read 8 words, bursts of 4", 8, func(a *ahbadapter.Adapter) (int, error) {
		return a.ReadBurst(0, make([]byte, 32))
	}); err != nil {
		return nil, err
	}
	if err := run("write 32-bit (RMW)", 1, func(a *ahbadapter.Adapter) (int, error) {
		return a.Write(0, 1, amba.SizeWord)
	}); err != nil {
		return nil, err
	}
	if err := run("write 4 words (no write burst)", 4, func(a *ahbadapter.Adapter) (int, error) {
		total := 0
		for i := 0; i < 4; i++ {
			c, err := a.Write(uint32(i)*4, 1, amba.SizeWord)
			if err != nil {
				return total, err
			}
			total += c
		}
		return total, nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// ReconfigRow is one line of the reconfiguration-cache experiment (E6).
type ReconfigRow struct {
	Step      string
	CacheHit  bool
	SynthTime string // modelled tool time this step would cost
}

// ReconfigExperiment demonstrates the Fig. 1 economics: the first
// visit to each configuration pays ≈1 modelled hour of synthesis, the
// rest swap from the cache. It returns the per-step log plus the
// cache's totals.
func ReconfigExperiment() ([]ReconfigRow, reconfig.Stats, error) {
	sys, err := core.New(leon.DefaultConfig(), core.Options{Synth: smallSynth})
	if err != nil {
		return nil, reconfig.Stats{}, err
	}
	var rows []ReconfigRow
	visit := func(size int) error {
		cfg := sys.Config()
		cfg.DCache.SizeBytes = size
		hit, err := sys.Reconfigure(cfg)
		if err != nil {
			return err
		}
		cost := "cache swap (ms)"
		if !hit {
			cost = synth.SynthTimeFor(synth.Estimate(cfg)).String()
		}
		rows = append(rows, ReconfigRow{
			Step:      fmt.Sprintf("reconfigure D$=%dKB", size>>10),
			CacheHit:  hit,
			SynthTime: cost,
		})
		return nil
	}
	// Sweep out, then revisit: the second pass must be all hits.
	for _, size := range []int{1 << 10, 8 << 10, 16 << 10, 1 << 10, 8 << 10, 16 << 10, 4 << 10} {
		if err := visit(size); err != nil {
			return nil, reconfig.Stats{}, err
		}
	}
	return rows, sys.Manager().Cache().Stats(), nil
}

// RunOnce builds a system and runs the source, returning the result —
// the building block for the protocol and MAC benches.
func RunOnce(cfg leon.Config, src string, copts lcc.Options) (leon.RunResult, uint32, error) {
	sys, err := core.New(cfg, core.Options{Synth: smallSynth})
	if err != nil {
		return leon.RunResult{}, 0, err
	}
	img, err := sys.CompileC(src, copts)
	if err != nil {
		return leon.RunResult{}, 0, err
	}
	res, err := sys.Run(img, 0)
	if err != nil {
		return res, 0, err
	}
	exit, err := sys.ExitValue(img)
	return res, exit, err
}

// MACSource is a dot-product kernel exercising the liquid ISA
// extension: with the MAC unit each step is one lqmac; without it the
// same math needs a multiply and an add.
func MACSource(useMAC bool) (string, lcc.Options) {
	body := "acc = acc + a[i] * b[i];"
	opts := lcc.Options{}
	if useMAC {
		body = "acc = __mac(acc, a[i], b[i]);"
		opts.MAC = true
	}
	src := `
int a[256];
int b[256];
int main() {
    int i;
    int pass;
    int acc = 0;
    for (i = 0; i < 256; i++) { a[i] = i; b[i] = i + 1; }
    for (pass = 0; pass < 64; pass++)
        for (i = 0; i < 256; i++)
            ` + body + `
    return acc;
}`
	return src, opts
}

// MACExperiment compares the dot-product kernel with and without the
// MAC unit (ablation of the "new instructions" liquid axis).
func MACExperiment() (plain, mac leon.RunResult, err error) {
	src, opts := MACSource(false)
	plain, _, err = RunOnce(leon.DefaultConfig(), src, opts)
	if err != nil {
		return
	}
	cfg := leon.DefaultConfig()
	cfg.CPU.MAC = true
	src, opts = MACSource(true)
	mac, _, err = RunOnce(cfg, src, opts)
	return
}

// BurstAblationRow measures line-fill traffic through the §3.2 adapter
// with different read-burst chunk sizes (the paper fixes 4).
type BurstAblationRow struct {
	BurstWords int
	Cycles     int
	Handshakes uint64
}

// BurstAblation drives a cache whose line fills go through the
// AHB↔SDRAM adapter, sweeping the adapter's burst chunk. The paper's
// choice of 4 words must beat per-word handshakes (1) and longer
// chunks must only help marginally for 8-word (32 B) lines. Each chunk
// size runs on its own adapter/bus/cache stack; workers bounds the
// concurrency.
func BurstAblation(workers int) ([]BurstAblationRow, error) {
	return forEachPoint(workers, []int{1, 2, 4, 8}, func(bw int) (BurstAblationRow, error) {
		sdramCtrl := mem.NewController(mem.NewSDRAM(1 << 20))
		port, err := sdramCtrl.Port("leon")
		if err != nil {
			return BurstAblationRow{}, err
		}
		adapter := ahbadapter.New(port)
		adapter.BurstWords = bw
		bus := amba.NewAHB()
		if err := bus.Map("sdram", 0, 1<<20, adapter); err != nil {
			return BurstAblationRow{}, err
		}
		c, err := cache.New(cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}, bus)
		if err != nil {
			return BurstAblationRow{}, err
		}
		total := 0
		// The Fig. 7 stride pattern: conflict misses on every access,
		// each one a full line fill through the adapter.
		for pass := 0; pass < 8; pass++ {
			for addr := uint32(0); addr < 4096; addr += 128 {
				_, cycles, err := c.Read(addr, amba.SizeWord)
				if err != nil {
					return BurstAblationRow{}, err
				}
				total += cycles
			}
		}
		return BurstAblationRow{
			BurstWords: bw,
			Cycles:     total,
			Handshakes: sdramCtrl.Stats().Requests,
		}, nil
	})
}

// ICacheRow is one point of the instruction-cache sweep: the other
// liquid cache axis the paper names ("Variable instruction/data cache
// size").
type ICacheRow struct {
	ICacheBytes int
	Cycles      uint64
	Misses      uint64
}

// icacheKernel generates a program whose hot loop body is bigger than
// a small instruction cache: many distinct statements, looped.
func icacheKernel() string {
	var b strings.Builder
	b.WriteString("int main() {\n    int x = 1;\n    int pass;\n")
	b.WriteString("    for (pass = 0; pass < 256; pass++) {\n")
	// ≈50 statements ≈ 1.5 KB of code in the loop body: larger than
	// a 1 KB instruction cache, comfortably inside 4 KB.
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "        x = x * 3 + %d;\n", i)
	}
	b.WriteString("    }\n    return x;\n}\n")
	return b.String()
}

// ICacheSweep measures the kernel under instruction-cache sizes
// 512 B - 4 KB with the data cache fixed, one SoC per point, workers
// points concurrently.
func ICacheSweep(workers int) ([]ICacheRow, error) {
	img, err := buildC(icacheKernel())
	if err != nil {
		return nil, err
	}
	return forEachPoint(workers, []int{512, 1 << 10, 2 << 10, 4 << 10}, func(size int) (ICacheRow, error) {
		cfg := leon.DefaultConfig()
		cfg.ICache = cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1}
		res, soc, err := runPoint(cfg, img)
		if err != nil || res.Faulted {
			return ICacheRow{}, fmt.Errorf("bench: icache run: %v %+v", err, res)
		}
		return ICacheRow{ICacheBytes: size, Cycles: res.Cycles, Misses: soc.ICache.Stats().Misses}, nil
	})
}

// PlacementRow compares the same kernel with its data in SRAM versus
// SDRAM (behind the §3.2 adapter) — the cost the adapter design
// discussion is about.
type PlacementRow struct {
	Memory string
	Cycles uint64
}

// PlacementExperiment runs a pointer-based sweep kernel over a buffer
// in SRAM and then in SDRAM, both placements concurrently when workers
// allows.
func PlacementExperiment(workers int) ([]PlacementRow, error) {
	kernel := func(base uint32) string {
		return fmt.Sprintf(`
int main() {
    volatile int *buf = (int*)0x%08X;
    int i;
    int pass;
    int x = 0;
    for (pass = 0; pass < 8; pass++)
        for (i = 0; i < 2048; i++)
            x += buf[i];
    return x;
}`, base)
	}
	type placement struct {
		name string
		base uint32
	}
	points := []placement{
		{"SRAM", leon.SRAMBase + 0x100000},
		{"SDRAM (via adapter)", leon.SDRAMBase + 0x1000},
	}
	return forEachPoint(workers, points, func(m placement) (PlacementRow, error) {
		res, _, err := RunOnce(leon.DefaultConfig(), kernel(m.base), lcc.Options{})
		if err != nil {
			return PlacementRow{}, err
		}
		if res.Faulted {
			return PlacementRow{}, fmt.Errorf("bench: placement %s faulted (tt=%#x)", m.name, res.TT)
		}
		return PlacementRow{Memory: m.name, Cycles: res.Cycles}, nil
	})
}

// PipelineRow is one point of the pipeline-depth experiment: the
// liquid trade-off between cycle count (branch penalty) and the
// synthesized clock.
type PipelineRow struct {
	Depth   int
	Cycles  uint64
	FMaxMHz float64
	Millis  float64
}

// PipelineExperiment runs a branch-heavy kernel at pipeline depths
// 4-7: deeper pipelines take more cycles (taken-branch penalty) but
// clock faster; wall-clock time decides the winner for the workload —
// exactly the "modifiable pipeline depth" axis of §1.
func PipelineExperiment(workers int) ([]PipelineRow, error) {
	src := `
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 20000; i++) {
        if (i & 1) x += 3; else x -= 1;
        if (x > 1000) x -= 500;
    }
    return x;
}`
	return forEachPoint(workers, []int{4, 5, 6, 7}, func(depth int) (PipelineRow, error) {
		cfg := leon.DefaultConfig()
		cfg.CPU.PipelineDepth = depth
		cfg.CPU.Timing = cpu.TimingForDepth(depth)
		res, _, err := RunOnce(cfg, src, lcc.Options{})
		if err != nil {
			return PipelineRow{}, err
		}
		if res.Faulted {
			return PipelineRow{}, fmt.Errorf("bench: pipeline depth %d faulted", depth)
		}
		fmax := synth.Estimate(cfg).FMaxMHz
		return PipelineRow{
			Depth:   depth,
			Cycles:  res.Cycles,
			FMaxMHz: fmax,
			Millis:  float64(res.Cycles) / (fmax * 1e3),
		}, nil
	})
}

// WritePolicyRow compares write-through and write-back data caches on
// a store-heavy kernel.
type WritePolicyRow struct {
	Policy string
	Cycles uint64
}

// WritePolicyExperiment runs a store-heavy kernel under both policies,
// concurrently when workers allows.
func WritePolicyExperiment(workers int) ([]WritePolicyRow, error) {
	src := `
int buf[512];
int main() {
    int pass;
    int i;
    for (pass = 0; pass < 32; pass++)
        for (i = 0; i < 512; i++)
            buf[i] = buf[i] + pass;
    return buf[1];
}`
	return forEachPoint(workers, []bool{false, true}, func(wb bool) (WritePolicyRow, error) {
		cfg := leon.DefaultConfig()
		name := "write-through"
		if wb {
			cfg.DCache.Write = cache.WriteBack
			name = "write-back"
		}
		res, _, err := RunOnce(cfg, src, lcc.Options{})
		if err != nil {
			return WritePolicyRow{}, err
		}
		if res.Faulted {
			return WritePolicyRow{}, fmt.Errorf("bench: write-policy run faulted")
		}
		return WritePolicyRow{Policy: name, Cycles: res.Cycles}, nil
	})
}

// AssocRow compares data-cache associativities at fixed size on the
// conflict-missing Fig. 7 kernel.
type AssocRow struct {
	Assoc  int
	Cycles uint64
	Misses uint64
}

// AssocExperiment sweeps associativity 1/2/4 at 2 KB on the Fig. 7
// kernel (EXPERIMENTS.md records why the ways do not help it). The
// kernel is compiled once; the points run concurrently up to workers.
func AssocExperiment(workers int) ([]AssocRow, error) {
	img, err := buildC(Fig7Source)
	if err != nil {
		return nil, err
	}
	return forEachPoint(workers, []int{1, 2, 4}, func(assoc int) (AssocRow, error) {
		cfg := leon.DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: assoc, Replacement: cache.LRU}
		res, soc, err := runPoint(cfg, img)
		if err != nil || res.Faulted {
			return AssocRow{}, fmt.Errorf("bench: assoc run: %v %+v", err, res)
		}
		return AssocRow{Assoc: assoc, Cycles: res.Cycles, Misses: soc.DCache.Stats().Misses}, nil
	})
}
