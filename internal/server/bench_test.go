package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"liquidarch/internal/client"
	"liquidarch/internal/hostinfo"
)

// benchIters sizes the benchmark program: ~95k loop iterations is
// ~285k instructions ≈ 5 ms of simulated execution — longer than the
// worst observed start-ack latency (so a completion wait reliably
// finds the run in flight), so the figure measures how fast the
// control plane turns a finished run around. With the server-held
// wait the client learns of completion at network latency, and the
// regime is program-bound rather than poll-bound.
const benchIters = 95_000

// BenchmarkNodeConcurrentClients measures complete run round trips per
// second (load once, then StartAsync + WaitResult per op) through a
// node with 1 and 4 boards, 1 client per board, with the stock client
// defaults — the documented configuration, not a detuned poll. With
// the server-held wait each client drives its board back-to-back, so
// the figure is simulation-bound: on a single-CPU host one board
// already saturates the simulator and the 4-board aggregate holds
// steady instead of scaling — see BENCH_node.json, which `make
// node-smoke` re-emits from both legs.
func BenchmarkNodeConcurrentClients(b *testing.B) {
	for _, nBoards := range []int{1, 4} {
		b.Run(fmt.Sprintf("boards=%d", nBoards), func(b *testing.B) {
			_, addr := startNode(b, nBoards)
			obj := assembleAt(b, countProg(benchIters))
			clients := make([]*client.Client, nBoards)
			for i := range clients {
				c := dial(b, addr)
				c.Board = uint8(i)
				if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}

			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range clients {
				iters := b.N / nBoards
				if i < b.N%nBoards {
					iters++
				}
				wg.Add(1)
				go func(c *client.Client, iters int) {
					defer wg.Done()
					for j := 0; j < iters; j++ {
						if err := c.StartAsync(obj.Origin, 0); err != nil {
							b.Error(err)
							return
						}
						if _, err := c.WaitResult(); err != nil {
							b.Error(err)
							return
						}
					}
				}(c, iters)
			}
			wg.Wait()
			b.StopTimer()
			runsPerSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(runsPerSec, "runs/s")
			nodeBenchLegs[nBoards] = nodeLeg{N: b.N, NsPerOp: b.Elapsed().Nanoseconds() / int64(b.N), RunsPerSec: round2(runsPerSec)}
			if nBoards == 1 {
				gateAndEmitLoadBench(b, runsPerSec)
			} else {
				emitNodeBench(b)
			}
		})
	}
}

// nodeLeg is one board count's figures in BENCH_node.json.
type nodeLeg struct {
	N          int
	NsPerOp    int64
	RunsPerSec float64
}

// nodeBenchLegs collects the legs of BenchmarkNodeConcurrentClients by
// board count; the boards=4 leg, which runs last, emits them.
var nodeBenchLegs = map[int]nodeLeg{}

// emitNodeBench rewrites the file LIQUID_NODE_JSON names (set by `make
// node-smoke`) with the legs just measured and the host stamp.
func emitNodeBench(b *testing.B) {
	out := os.Getenv("LIQUID_NODE_JSON")
	if out == "" {
		return
	}
	var j struct {
		Figure string `json:"figure"`
		Data   struct {
			Boards1, Boards4 nodeLeg
			AggregateSpeedup float64
			hostinfo.Host
			Note string
		} `json:"data"`
	}
	j.Figure = "Multi-board node: aggregate run throughput, 1 client per board (BenchmarkNodeConcurrentClients, ~5 ms program, stock client: server-held result wait)"
	j.Data.Boards1, j.Data.Boards4 = nodeBenchLegs[1], nodeBenchLegs[4]
	if j.Data.Boards1.RunsPerSec > 0 {
		j.Data.AggregateSpeedup = round2(j.Data.Boards4.RunsPerSec / j.Data.Boards1.RunsPerSec)
	}
	j.Data.Host = hostinfo.Current()
	j.Data.Note = "each client drives its board back to back, so the figure is simulation-bound: the aggregate over 4 boards can scale only with the host CPUs the boards' actors get (HostCPUs)"
	raw, err := json.MarshalIndent(&j, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		b.Fatalf("node bench: write %s: %v", out, err)
	}
	b.Logf("node bench: wrote %s", out)
}
