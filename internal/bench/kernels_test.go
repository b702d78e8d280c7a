package bench

import (
	"testing"

	"liquidarch/internal/leon"
)

// kernelSoC is KernelSoC or the test's end.
func kernelSoC(t testing.TB, k StepKernelCase) *leon.SoC {
	t.Helper()
	soc, err := KernelSoC(k)
	if err != nil {
		t.Fatal(err)
	}
	return soc
}

// TestStepKernelsAllocateNothing: stepping a compiled kernel allocates
// nothing per batch, misses and line fills included.
func TestStepKernelsAllocateNothing(t *testing.T) {
	for _, k := range StepKernels() {
		t.Run(k.Name, func(t *testing.T) {
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
	for _, k := range StepKernels() {
		b.Run(k.Name, func(b *testing.B) {
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
