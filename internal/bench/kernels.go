package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/cache"
	"liquidarch/internal/hostinfo"
	"liquidarch/internal/leon"
)

// Real compiled kernels at miss-heavy geometries, stepped in steady
// state. StepKernel uses only %g registers and never misses; these
// exercise what it does not: register windows (lcc keeps locals in
// %l/%o registers behind a SAVE), instruction and data line fills, the
// §3.2 adapter's burst path and an associative cache's LRU state. The
// count loop is the program the node benchmarks run, a branch every
// third instruction.

// StepKernelCase is one kernel and the geometry it runs at: Liquid-C
// source compiled by lcc, or SPARC assembly when Asm is set. A nil Cfg
// runs the default configuration.
type StepKernelCase struct {
	Name string
	Src  string
	Asm  string
	Cfg  func(*leon.Config)
}

// countLoopKernel is the count loop of BenchmarkNodeConcurrentClients
// and load-smoke (subcc; bne; nop), restarted forever. Each pass starts
// with a FLUSH, as each run on a node starts after the boot ROM's, so
// the kernel refills its lines every 30,000 steps.
const countLoopKernel = `
_start:
	flush %g0
	set 10000, %g2
loop:
	subcc %g2, 1, %g2
	bne loop
	nop
	ba _start
	nop
`

// forever renames src's main to run and adds a main that calls it in
// an endless loop, so a kernel can be stepped for any number of steps.
func forever(src, setup string) string {
	if strings.Count(src, "int main() {") != 1 {
		panic("bench: kernel source has no single main")
	}
	return strings.Replace(src, "int main() {", "int run() {", 1) +
		"\nint main() {\n" + setup + "    while (1)\n        run();\n    return 0;\n}\n"
}

// StepKernels returns the kernel cases: Fig. 7 over SDRAM at a 1 KB
// D-cache, a dot product at a 2 KB 2-way LRU D-cache, a code-footprint
// loop at a 512 B I-cache and the count loop.
func StepKernels() []StepKernelCase {
	// Fig. 7 with its array behind the SDRAM adapter: a 1 KB D-cache
	// holds a quarter of the 4 KB array, so every load misses.
	if strings.Count(Fig7Source, "int count[1024];") != 1 {
		panic("bench: Fig7Source no longer declares count[1024]")
	}
	fig7 := forever(strings.Replace(Fig7Source, "int count[1024];", "int *count;", 1),
		fmt.Sprintf("    count = (int*)0x%08X;\n", leon.SDRAMBase+0x4000))

	// A dot product over two 2 KB SDRAM arrays: 4 KB streamed through a
	// 2 KB 2-way LRU D-cache misses once per line.
	dot := forever(fmt.Sprintf(`
int main() {
    int *a = (int*)0x%08X;
    int *b = (int*)0x%08X;
    int i;
    int acc = 0;
    for (i = 0; i < 512; i++)
        acc = acc + a[i] * b[i];
    return acc;
}`, leon.SDRAMBase+0x1000, leon.SDRAMBase+0x1800), "")

	return []StepKernelCase{
		{Name: "fig7-sdram-dcache1k", Src: fig7, Cfg: func(c *leon.Config) {
			c.DCache = cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}
		}},
		{Name: "dot-dcache2k-2way", Src: dot, Cfg: func(c *leon.Config) {
			c.DCache = cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 2, Replacement: cache.LRU}
		}},
		// About 1.5 KB of loop body through a 512 B I-cache.
		{Name: "footprint-icache512", Src: forever(icacheKernel(), ""), Cfg: func(c *leon.Config) {
			c.ICache = cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}
		}},
		{Name: "count-loop", Asm: countLoopKernel},
	}
}

// KernelSoC boots a SoC at the case's geometry, hands off into the
// kernel and warms it up.
func KernelSoC(k StepKernelCase) (*leon.SoC, error) {
	origin, entry, code, err := k.build()
	if err != nil {
		return nil, err
	}
	cfg := leon.DefaultConfig()
	if k.Cfg != nil {
		k.Cfg(&cfg)
	}
	soc, err := leon.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		return nil, err
	}
	if err := ctrl.LoadProgram(origin, code); err != nil {
		return nil, err
	}
	if err := ctrl.Start(entry, 0); err != nil {
		return nil, err
	}
	if _, err := StepSteady(soc, 1<<16); err != nil {
		return nil, err
	}
	return soc, nil
}

// build assembles or compiles the kernel, returning its load address,
// entry point and image.
func (k StepKernelCase) build() (origin, entry uint32, code []byte, err error) {
	if k.Asm != "" {
		obj, err := asm.AssembleAt(k.Asm, leon.DefaultLoadAddr)
		if err != nil {
			return 0, 0, nil, err
		}
		return obj.Origin, obj.Origin, obj.Code, nil
	}
	img, err := buildC(k.Src)
	if err != nil {
		return 0, 0, nil, err
	}
	return img.Origin, img.Entry, img.Code, nil
}

// CalibratedNsPerStep times endless kernels for a gate: rounds passes
// over socs, each timing a batch of steps instructions of every SoC in
// turn, each batch right after a host calibration (hostinfo.Calibrate).
// For each SoC it returns the median batch's ns/step and the median of
// its batches' ns/step scaled to the reference host — divided by the
// calibration before the batch and multiplied by the reference time.
// The host's speed cancels out of the scaled figure, so a gate can
// hold it to a baseline from another host, or from a slower hour of
// this one. Short batches keep each close in time to its calibration,
// and the passes spread every kernel's batches over the whole
// measurement, so a spell of a few seconds in which the host runs the
// kernels faster or slower than the calibration moves no kernel's
// median far. On a shared 2-vCPU VM, 31 passes of 500k steps read
// within about ±5% of their median from one process to the next, while
// raw ns/step spreads over ±30%.
func CalibratedNsPerStep(socs []*leon.SoC, steps uint64, rounds int) (ns, refNs []float64, err error) {
	raw := make([][]float64, len(socs))
	scaled := make([][]float64, len(socs))
	for r := 0; r < rounds; r++ {
		for i, soc := range socs {
			calibMS := hostinfo.Calibrate()
			start := time.Now()
			if _, err := StepSteady(soc, steps); err != nil {
				return nil, nil, err
			}
			perStep := float64(time.Since(start).Nanoseconds()) / float64(steps)
			raw[i] = append(raw[i], perStep)
			scaled[i] = append(scaled[i], perStep*hostinfo.CalibRefMS/calibMS)
		}
	}
	for i := range socs {
		sort.Float64s(raw[i])
		sort.Float64s(scaled[i])
		ns = append(ns, raw[i][rounds/2])
		refNs = append(refNs, scaled[i][rounds/2])
	}
	return ns, refNs, nil
}
