package core_test

import (
	"fmt"
	"log"

	"liquidarch/internal/archgen"
	"liquidarch/internal/core"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/synth"
)

// Example shows the complete local flow: instantiate a liquid node,
// compile a C program, run it under the hardware cycle counter and
// read the result back.
func Example() {
	sys, err := core.New(leon.DefaultConfig(), core.Options{
		Synth: synth.Options{BitstreamBytes: 1024},
	})
	if err != nil {
		log.Fatal(err)
	}
	img, err := sys.CompileC("int main() { return 6 * 7; }", lcc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(img, 0)
	if err != nil || res.Faulted {
		log.Fatal(err)
	}
	v, _ := sys.ExitValue(img)
	fmt.Println("exit value:", v)
	// Output: exit value: 42
}

// ExampleSystem_Reconfigure demonstrates the liquid step: swapping the
// data cache at runtime while the loaded program survives in the board
// memory.
func ExampleSystem_Reconfigure() {
	sys, err := core.New(leon.DefaultConfig(), core.Options{
		Synth: synth.Options{BitstreamBytes: 1024},
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := sys.Config()
	cfg.DCache.SizeBytes = 8 << 10
	if _, err := sys.Reconfigure(cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dcache:", sys.Config().DCache.SizeBytes)
	fmt.Println("partial:", sys.ReconfigureStatus().Partial)
	// Output:
	// dcache: 8192
	// partial: true
}

// ExampleSystem_AutoTune runs the Fig. 1 loop on the paper's kernel.
func ExampleSystem_AutoTune() {
	cfg := leon.DefaultConfig()
	cfg.DCache.SizeBytes = 1 << 10
	sys, err := core.New(cfg, core.Options{Synth: synth.Options{BitstreamBytes: 1024}})
	if err != nil {
		log.Fatal(err)
	}
	img, err := sys.CompileC(`
int count[1024];
int main() {
    int i; int x = 0;
    for (i = 0; i < 65536; i = i + 32) x += count[i % 1024];
    return x;
}`, lcc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.AutoTune(img, archgen.PaperSpace(cfg), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tuned dcache:", rep.TunedCfg.DCache.SizeBytes)
	fmt.Println("faster:", rep.Speedup > 1.2)
	// Output:
	// tuned dcache: 4096
	// faster: true
}
