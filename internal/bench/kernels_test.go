package bench

import (
	"fmt"
	"strings"
	"testing"

	"liquidarch/internal/cache"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
)

// Real compiled kernels at miss-heavy geometries, stepped in steady
// state. StepKernel uses only %g registers and never misses; these
// exercise what it does not: register windows (lcc keeps locals in
// %l/%o registers behind a SAVE), instruction and data line fills, the
// §3.2 adapter's burst path and an associative cache's LRU state.

// forever renames src's main to run and adds a main that calls it in
// an endless loop, so a kernel can be stepped for any number of steps.
func forever(t testing.TB, src, setup string) string {
	t.Helper()
	if strings.Count(src, "int main() {") != 1 {
		t.Fatal("kernel source has no single main")
	}
	return strings.Replace(src, "int main() {", "int run() {", 1) +
		"\nint main() {\n" + setup + "    while (1)\n        run();\n    return 0;\n}\n"
}

// stepKernelCase is one kernel and the geometry it runs at.
type stepKernelCase struct {
	name string
	src  string
	cfg  func(*leon.Config)
}

func stepKernelCases(t testing.TB) []stepKernelCase {
	t.Helper()
	// Fig. 7 with its array behind the SDRAM adapter: a 1 KB D-cache
	// holds a quarter of the 4 KB array, so every load misses.
	fig7 := Fig7Source
	if strings.Count(fig7, "int count[1024];") != 1 {
		t.Fatal("Fig7Source no longer declares count[1024]")
	}
	fig7 = forever(t, strings.Replace(fig7, "int count[1024];", "int *count;", 1),
		fmt.Sprintf("    count = (int*)0x%08X;\n", leon.SDRAMBase+0x4000))

	// A dot product over two 2 KB SDRAM arrays: 4 KB streamed through a
	// 2 KB 2-way LRU D-cache misses once per line.
	dot := forever(t, fmt.Sprintf(`
int main() {
    int *a = (int*)0x%08X;
    int *b = (int*)0x%08X;
    int i;
    int acc = 0;
    for (i = 0; i < 512; i++)
        acc = acc + a[i] * b[i];
    return acc;
}`, leon.SDRAMBase+0x1000, leon.SDRAMBase+0x1800), "")

	return []stepKernelCase{
		{"fig7-sdram-dcache1k", fig7, func(c *leon.Config) {
			c.DCache = cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1}
		}},
		{"dot-dcache2k-2way", dot, func(c *leon.Config) {
			c.DCache = cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 2, Replacement: cache.LRU}
		}},
		// About 1.5 KB of loop body through a 512 B I-cache.
		{"footprint-icache512", forever(t, icacheKernel(), ""), func(c *leon.Config) {
			c.ICache = cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}
		}},
	}
}

// kernelSoC boots a SoC at the case's geometry, hands off into the
// kernel and warms it up.
func kernelSoC(t testing.TB, k stepKernelCase) *leon.SoC {
	t.Helper()
	asmText, err := lcc.Compile(k.src, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Build(asmText, link.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := leon.DefaultConfig()
	k.cfg(&cfg)
	soc, err := leon.New(cfg, nil)
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
	if err := ctrl.Start(img.Entry, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := StepSteady(soc, 1<<16); err != nil {
		t.Fatal(err)
	}
	return soc
}

// TestStepKernelsAllocateNothing: stepping a compiled kernel allocates
// nothing per batch, misses and line fills included.
func TestStepKernelsAllocateNothing(t *testing.T) {
	for _, k := range stepKernelCases(t) {
		t.Run(k.name, func(t *testing.T) {
			soc := kernelSoC(t, k)
			misses := func() uint64 { return soc.ICache.Stats().Misses + soc.DCache.Stats().Misses }
			before := misses()
			allocs := testing.AllocsPerRun(16, func() {
				if _, err := StepSteady(soc, 4096); err != nil {
					t.Fatal(err)
				}
			})
			if misses() == before {
				t.Fatal("the kernel took no cache misses while measured")
			}
			if allocs != 0 {
				t.Fatalf("StepN allocates %.1f times per 4096-step batch", allocs)
			}
		})
	}
}

// BenchmarkStepKernels reports host ns per simulated instruction for
// each kernel in steady state.
func BenchmarkStepKernels(b *testing.B) {
	for _, k := range stepKernelCases(b) {
		b.Run(k.name, func(b *testing.B) {
			soc := kernelSoC(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := StepSteady(soc, uint64(b.N)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
		})
	}
}
