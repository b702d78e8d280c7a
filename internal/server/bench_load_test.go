package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"liquidarch/internal/hostinfo"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// loadBenchDelay is the injected one-way transport latency for the
// load-throughput benchmark. On loopback the real RTT is microseconds,
// which would hide the pipelining win entirely; a fixed 1 ms each way
// makes elapsed time a direct count of serialized round trips:
// impliedRTTs = elapsed / (2 * loadBenchDelay).
const loadBenchDelay = time.Millisecond

// loadBenchChunks sizes the benchmark image in chunks: 96 chunks of
// netproto.MaxChunkData bytes ≈ 134 KiB. A stop-and-wait load pays ~1
// RTT per chunk; the sliding window pays ~ceil(chunks/window) plus the
// probe, so window=16 should land near 96/16 + O(1) implied RTTs.
const loadBenchChunks = 96

// loadBenchRTTs collects per-window implied-RTT figures across the
// window=1 / window=16 subbenchmarks so the pipelined run can be gated
// against the stop-and-wait run (and both emitted to BENCH_load.json).
var loadBenchRTTs = map[int]float64{}

// BenchmarkLoadThroughput measures a full ~96-chunk program load
// through a relay with 1 ms of latency each way, once with the
// window disabled (window=1, classic stop-and-wait) and once with the
// default 16-chunk sliding window. The reported "rtts" metric is the
// number of serialized round trips the load cost; the acceptance bar
// is window=16 taking at least 2x fewer than window=1.
func BenchmarkLoadThroughput(b *testing.B) {
	img := make([]byte, (loadBenchChunks-1)*netproto.MaxChunkData+512)
	for i := range img {
		img[i] = byte(i * 31)
	}
	_, addr := startServer(b)
	for _, w := range []int{1, 16} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			relay := chaosRelay(b, addr, 1, sim.LinkParams{Latency: loadBenchDelay}, nil)
			c := dial(b, relay.Addr().String())
			c.Window = w
			c.Timeout = 2 * time.Second
			b.SetBytes(int64(len(img)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perLoad := b.Elapsed().Seconds() / float64(b.N)
			rtts := perLoad / (2 * loadBenchDelay.Seconds())
			b.ReportMetric(rtts, "rtts")
			loadBenchRTTs[w] = rtts
			if w == 16 {
				gateLoadRTTs(b)
			}
		})
	}
}

// gateLoadRTTs enforces the pipelining acceptance bar when the smoke
// gate is armed (LIQUID_LOAD_GATE=1, set by `make load-smoke`): the
// windowed load must cost at most half the round trips of the
// stop-and-wait load over the same lossless-but-slow link.
func gateLoadRTTs(b *testing.B) {
	if os.Getenv("LIQUID_LOAD_GATE") == "" {
		return
	}
	w1, ok1 := loadBenchRTTs[1]
	w16, ok16 := loadBenchRTTs[16]
	if !ok1 || !ok16 {
		b.Log("load gate: window=1 baseline not run in this invocation; skipping RTT gate")
		return
	}
	if w16 > w1/2 {
		b.Fatalf("load gate: window=16 cost %.1f implied RTTs, window=1 cost %.1f; need at least a 2x reduction", w16, w1)
	}
	b.Logf("load gate: window=16 %.1f RTTs vs window=1 %.1f RTTs (%.1fx reduction)", w16, w1, w1/w16)
}

// benchLoadJSON is the on-disk shape of BENCH_load.json.
type benchLoadJSON struct {
	Figure string `json:"figure"`
	Data   struct {
		ImageChunks       int     `json:"ImageChunks"`
		ChunkBytes        int     `json:"ChunkBytes"`
		DelayMsEachWay    float64 `json:"DelayMsEachWay"`
		Window1RTTs       float64 `json:"Window1RTTs"`
		Window16RTTs      float64 `json:"Window16RTTs"`
		RTTReduction      float64 `json:"RTTReduction"`
		Boards1RunsPerSec float64 `json:"Boards1RunsPerSec"`
		// Boards1RefRunsPerSec is the gated figure: single-board runs/s
		// scaled to a host where hostinfo.Calibrate takes CalibRefMS
		// (see calibratedRunsPerSec).
		Boards1RefRunsPerSec float64 `json:"Boards1RefRunsPerSec"`
		hostinfo.Host
		Note string `json:"Note"`
	} `json:"data"`
}

// Calibrated single-board throughput: loadGateRounds batches of
// loadGateRuns back-to-back runs, each batch timed right after a host
// calibration.
const (
	loadGateRounds = 9
	loadGateRuns   = 10
)

// calibratedRunsPerSec times loadGateRounds batches of loadGateRuns
// runs of run, each right after a host calibration (hostinfo.Calibrate),
// and returns the median batch's runs/s scaled to the reference host:
// multiplied by the calibration's time over hostinfo.CalibRefMS. The
// host's speed cancels out of the scaled figure, as it does from
// bench-smoke's calibrated ns/step, so a gate can hold it to a baseline
// from another host or a slower hour of this one.
func calibratedRunsPerSec(run func() error) (float64, error) {
	scaled := make([]float64, 0, loadGateRounds)
	for r := 0; r < loadGateRounds; r++ {
		calibMS := hostinfo.Calibrate()
		start := time.Now()
		for i := 0; i < loadGateRuns; i++ {
			if err := run(); err != nil {
				return 0, err
			}
		}
		perSec := loadGateRuns / time.Since(start).Seconds()
		scaled = append(scaled, perSec*calibMS/hostinfo.CalibRefMS)
	}
	sort.Float64s(scaled)
	return scaled[loadGateRounds/2], nil
}

// gateAndEmitLoadBench is called from the boards=1 leg of
// BenchmarkNodeConcurrentClients with the leg's runs/s and one run of
// its client. When LIQUID_LOAD_GATE=1 it fails the run if the
// calibrated single-board throughput (calibratedRunsPerSec) fell below
// half the checked-in BENCH_load.json baseline's; when LIQUID_LOAD_JSON
// names a path (set by `make load-baseline`) it rewrites that file with
// the figures just measured and the host stamp.
func gateAndEmitLoadBench(b *testing.B, runsPerSec float64, run func() error) {
	gate, out := os.Getenv("LIQUID_LOAD_GATE") != "", os.Getenv("LIQUID_LOAD_JSON")
	if !gate && out == "" {
		return
	}
	refRunsPerSec, err := calibratedRunsPerSec(run)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(refRunsPerSec, "ref-runs/s")
	if gate {
		path := os.Getenv("LIQUID_LOAD_BASELINE")
		if path == "" {
			path = "../../BENCH_load.json"
		}
		if raw, err := os.ReadFile(path); err != nil {
			b.Logf("load gate: no baseline at %s (%v); skipping throughput gate", path, err)
		} else {
			var base benchLoadJSON
			if err := json.Unmarshal(raw, &base); err != nil {
				b.Fatalf("load gate: parse %s: %v", path, err)
			}
			want := base.Data.Boards1RefRunsPerSec
			if want == 0 {
				b.Fatalf("load gate: %s has no calibrated single-board figure; re-emit it with make load-baseline", path)
			}
			if floor := want / 2; refRunsPerSec < floor {
				b.Fatalf("load gate: calibrated single-board throughput %.2f runs/s below floor %.2f (half of checked-in %.2f)",
					refRunsPerSec, floor, want)
			} else {
				b.Logf("load gate: calibrated single-board %.2f runs/s >= floor %.2f", refRunsPerSec, floor)
			}
		}
	}
	if out == "" {
		return
	}
	var j benchLoadJSON
	j.Figure = "Pipelined control plane: sliding-window load round trips (BenchmarkLoadThroughput, 96-chunk image, 1 ms injected each-way delay) and single-board run throughput with the server-held wait (BenchmarkNodeConcurrentClients/boards=1, ~5 ms program, stock client; Boards1RefRunsPerSec, the gated figure, is the median of 9 batches of 10 runs, each scaled to a host where hostinfo.Calibrate takes 10 ms)"
	j.Data.ImageChunks = loadBenchChunks
	j.Data.ChunkBytes = netproto.MaxChunkData
	j.Data.DelayMsEachWay = loadBenchDelay.Seconds() * 1000
	j.Data.Window1RTTs = round2(loadBenchRTTs[1])
	j.Data.Window16RTTs = round2(loadBenchRTTs[16])
	if loadBenchRTTs[16] > 0 {
		j.Data.RTTReduction = round2(loadBenchRTTs[1] / loadBenchRTTs[16])
	}
	j.Data.Boards1RunsPerSec = round2(runsPerSec)
	j.Data.Boards1RefRunsPerSec = round2(refRunsPerSec)
	j.Data.Host = hostinfo.Current()
	j.Data.Note = "stop-and-wait pays ~1 RTT per chunk; the 16-chunk window overlaps them so the load is latency-bound on ~chunks/window round trips. The runs/s figure uses the stock client: the server parks the wait and replies on completion, so each run costs the program time plus network latency, not a poll interval."
	raw, err := json.MarshalIndent(&j, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		b.Fatalf("load bench: write %s: %v", out, err)
	}
	b.Logf("load bench: wrote %s", out)
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
