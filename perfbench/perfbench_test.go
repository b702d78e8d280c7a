package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// serverBin is the liquid-server binary TestMain builds for the remote
// workloads.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "liquid-server")
	build := exec.Command("go", "build", "-o", serverBin, "liquidarch/cmd/liquid-server")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "build liquid-server: %v\n", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// testSeconds is a test run's window. It must hold whole passes over the
// point list, which the exact counts are taken over; with the race
// detector, sweep's simulator runs in the test binary several times
// slower.
func testSeconds(workload string) float64 {
	if raceEnabled && workload == "sweep" {
		return 12
	}
	return 2
}

// bench runs one short invocation in process.
func bench(t *testing.T, workload string, seed int64, trace, corrupt bool) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: seed, seconds: testSeconds(workload), trace: trace,
		out: t.TempDir(), serverBin: serverBin, setups: 1, corruptExpect: corrupt,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return res
}

// spec is the part of BENCHMARK.json the benchmark must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// wantMetrics asserts that a result prints exactly the named metrics,
// each with its unit.
func wantMetrics(t *testing.T, res *result, names []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n.Name]
		if !ok {
			t.Errorf("metric %s missing", n.Name)
			continue
		}
		if m.Unit != n.Unit {
			t.Errorf("metric %s in %q, want %q", n.Name, m.Unit, n.Unit)
		}
	}
}

// exactLayers are the per-layer counts of the modelled hardware: they
// must repeat exactly across runs, seeds and tracing.
var exactLayers = []string{
	"cpu.instructions_per_op", "cpu.cycles_per_op", "cpu.cpi",
	"cache.dcache_miss_ratio", "cache.icache_miss_ratio",
	"mem.sdram_requests_per_op", "ahbadapter.rmw_cycles_per_op",
}

// mayReadZero are the per-layer metrics that count waste or contention
// (retries, drops, synthesis on a prewarmed space, coalesced requests):
// 0 is their expected value, not a sign that they measure nothing.
var mayReadZero = map[string]bool{
	"client.retries_per_op": true, "server.drops_per_op": true,
	"reconfig.synth_runs": true, "reconfig.coalesced": true,
}

// measuredOn reports whether a per-layer metric's table row names the
// workload (or "all").
func measuredOn(d layerDef, w string) bool {
	for _, on := range strings.Split(d.on, ",") {
		if on = strings.TrimSpace(on); on == w || on == "all" {
			return true
		}
	}
	return false
}

func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark drives %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			if _, ok := workloads[w]; !ok {
				t.Fatalf("BENCHMARK.json workload %s is not driven", w)
			}
			const seed, heldOut = 7, 977
			plain := bench(t, w, seed, false, false)
			again := bench(t, w, heldOut, false, false)
			traced := bench(t, w, seed, true, false)
			tracedAgain := bench(t, w, heldOut, true, false)
			for _, r := range []*result{plain, again, traced, tracedAgain} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("correct %v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
				}
			}
			wantMetrics(t, plain, s.EndToEnd)
			wantMetrics(t, traced, s.PerLayer)
			// A misspelt span key or counter would read 0 on the very
			// workload the metric is said to measure.
			for _, d := range layerTable {
				if measuredOn(d, w) && !mayReadZero[d.name] && traced.Metrics[d.name].Value == 0 {
					t.Errorf("%s reads 0 on %s, which it measures", d.name, w)
				}
			}

			cycles := plain.Metrics["sim_cycles_per_op"].Value
			if got := again.Metrics["sim_cycles_per_op"].Value; got != cycles {
				t.Errorf("sim_cycles_per_op: seed %d %v, held-out seed %d %v", seed, cycles, heldOut, got)
			}
			if got := traced.Metrics["cpu.cycles_per_op"].Value; got != cycles {
				t.Errorf("cycles per op: untraced %v, traced %v", cycles, got)
			}
			for _, name := range exactLayers {
				if a, b := traced.Metrics[name].Value, tracedAgain.Metrics[name].Value; a != b {
					t.Errorf("%s: seed %d %v, held-out seed %d %v", name, seed, a, heldOut, b)
				}
			}
		})
	}
}

func TestWrongExpectationIsAFailedOp(t *testing.T) {
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := bench(t, w, 7, false, true)
			if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
				t.Errorf("corrupted expectation: correct %v, %d of %d ops failed; want some, not all, failed",
					res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestLayerTableMatchesSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layerTable %d", len(s.PerLayer), len(layerTable))
	}
	for i, d := range layerTable {
		if s.PerLayer[i].Name != d.name || s.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), layerTable %s (%s)",
				i, s.PerLayer[i].Name, s.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}
