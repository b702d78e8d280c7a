// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three closed-loop workloads against the liquid-architecture
// node for a fixed window, checks the output of every operation, and
// prints one JSON result line:
//
//	perfbench --workload sweep|remote-run|explore --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// and the run's spans are exported as Chrome trace JSON. run.sh builds
// the node (the stock cmd/liquid-server) and this command from source
// and then runs it; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out holds the node binary, scratch directories, reports and
	// exported traces.
	out string
	// serverBin is the liquid-server binary the remote workloads launch.
	serverBin string
	// setups is how many times set-up is repeated (setup_s is their
	// median; the last one serves the timed window).
	setups int
	// corruptExpect flips one bit of the first point's expected output,
	// so every op at that point must be reported as failed (self-test).
	corruptExpect bool
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to the function that sets it up.
var workloads = map[string]func(o options) (workload, error){
	"sweep":      setupSweep,
	"remote-run": setupRemoteRun,
	"explore":    setupExplore,
}

// setups is how many times each run sets its workload up; setup_s is
// their median.
const setups = 10

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "sweep, remote-run or explore")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: point order, kernel constants, data blocks")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory of the node binary, reports and traces")
	flag.Parse()
	o.trace = trace == 1
	o.setups = setups
	o.serverBin = filepath.Join(o.out, "liquid-server")

	// Every run must end within its time limit, whatever happens to the
	// node: the watchdog stops the children and fails the run.
	limit := time.Duration(o.seconds*float64(time.Second)) + 150*time.Second
	if limit > 175*time.Second {
		limit = 175 * time.Second
	}
	time.AfterFunc(limit, func() {
		stopAllNodes()
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded its time limit")
		os.Exit(3)
	})

	res, err := run(o)
	if err != nil {
		stopAllNodes()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and assembles its result.
func run(o options) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want sweep, remote-run or explore)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.setups < 1 {
		o.setups = 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rep, err := runWorkload(o, setup)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.Metrics,
	}
	if err := rep.write(o); err != nil {
		return nil, err
	}
	return res, nil
}
