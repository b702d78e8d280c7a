package reconfig

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"liquidarch/internal/hostinfo"
	"liquidarch/internal/leon"
	"liquidarch/internal/synth"
)

// benchSpace is the configuration sweep the cold/warm benchmark walks:
// five D-cache sizes crossed with two I-cache sizes, the "many points
// in a configuration space" picture of §1 at small scale (all ten
// points fit the modelled device).
func benchSpace() []leon.Config {
	var space []leon.Config
	for _, ic := range []int{1 << 10, 2 << 10} {
		for _, dc := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
			cfg := leon.DefaultConfig()
			cfg.ICache.SizeBytes = ic
			cfg.DCache.SizeBytes = dc
			space = append(space, cfg)
		}
	}
	return space
}

// BenchmarkReconfigColdWarm measures reconfiguration as a service end
// to end: a cold manager pregenerates the sweep into a persistent
// store (each point costs one modelled ≈1 h synthesis), then a fresh
// manager — a restarted node — warm-loads the store and serves a
// request sweep (three passes over the space plus one novel point).
// The reported metrics are the warm hit ratio and the modelled tool
// hours the cache avoided; `make reconfig-smoke` arms the gate
// (LIQUID_RECONFIG_GATE=1), which requires a ≥90% warm hit ratio and
// exactly one warm synthesis (the novel point), and emits the figures
// to BENCH_reconfig.json (LIQUID_RECONFIG_JSON).
func BenchmarkReconfigColdWarm(b *testing.B) {
	opts := synth.Options{BitstreamBytes: 4096} // TimeScale 0: modelled hours, no real sleep
	space := benchSpace()

	for i := 0; i < b.N; i++ {
		dir := b.TempDir()

		// Cold: pregenerate the whole space through the bounded pool,
		// writing every image through to the store.
		cold := NewManagerWorkers(NewCache(0), opts, 4)
		if err := cold.Cache().SetDir(dir); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := cold.Pregenerate(space); err != nil {
			b.Fatal(err)
		}
		coldWall := time.Since(t0)
		if got := cold.Stats().SynthRuns; got != uint64(len(space)) {
			b.Fatalf("cold pregenerate ran %d syntheses for %d points", got, len(space))
		}

		// Warm: a restarted node loads the store and serves the sweep.
		warm := NewManagerWorkers(NewCache(0), opts, 4)
		if err := warm.Cache().Load(dir); err != nil {
			b.Fatal(err)
		}
		novel := leon.DefaultConfig()
		novel.BurstWords = 8 // outside the pregenerated sweep
		requests := 0
		t0 = time.Now()
		for pass := 0; pass < 3; pass++ {
			for _, cfg := range space {
				if _, _, err := warm.GetOrSynthesize(cfg); err != nil {
					b.Fatal(err)
				}
				requests++
			}
		}
		if _, _, err := warm.GetOrSynthesize(novel); err != nil {
			b.Fatal(err)
		}
		requests++
		warmWall := time.Since(t0)

		cs := warm.Cache().Stats()
		ms := warm.Stats()
		ratio := float64(cs.Hits) / float64(requests)
		b.ReportMetric(ratio*100, "hit%")
		b.ReportMetric(cs.SavedTime.Hours(), "modelled-h-saved")

		if i == b.N-1 {
			gateAndEmitReconfigBench(b, reconfigBenchFigures{
				points:    len(space),
				requests:  requests,
				hits:      cs.Hits,
				ratio:     ratio,
				savedH:    cs.SavedTime.Hours(),
				warmRuns:  ms.SynthRuns,
				loaded:    cs.PersistLoaded,
				coldWall:  coldWall,
				warmWall:  warmWall,
				coalesced: ms.Coalesced,
			})
		}
	}
}

type reconfigBenchFigures struct {
	points    int
	requests  int
	hits      uint64
	ratio     float64
	savedH    float64
	warmRuns  uint64
	loaded    uint64
	coldWall  time.Duration
	warmWall  time.Duration
	coalesced uint64
}

// benchReconfigJSON is the on-disk shape of BENCH_reconfig.json.
type benchReconfigJSON struct {
	Figure string `json:"figure"`
	Data   struct {
		SpacePoints        int     `json:"SpacePoints"`
		WarmRequests       int     `json:"WarmRequests"`
		WarmHits           uint64  `json:"WarmHits"`
		WarmHitRatio       float64 `json:"WarmHitRatio"`
		ModelledHoursSaved float64 `json:"ModelledHoursSaved"`
		WarmSynthRuns      uint64  `json:"WarmSynthRuns"`
		ImagesWarmLoaded   uint64  `json:"ImagesWarmLoaded"`
		ColdPregenWallMs   float64 `json:"ColdPregenWallMs"`
		WarmSweepWallMs    float64 `json:"WarmSweepWallMs"`
		hostinfo.Host
		Note string `json:"Note"`
	} `json:"data"`
}

// gateAndEmitReconfigBench enforces the acceptance bar when the smoke
// gate is armed (LIQUID_RECONFIG_GATE=1, set by `make reconfig-smoke`)
// and emits BENCH_reconfig.json when LIQUID_RECONFIG_JSON names a path.
func gateAndEmitReconfigBench(b *testing.B, f reconfigBenchFigures) {
	if os.Getenv("LIQUID_RECONFIG_GATE") != "" {
		if f.ratio < 0.9 {
			b.Fatalf("reconfig gate: warm hit ratio %.1f%% below the 90%% floor", f.ratio*100)
		}
		if f.warmRuns != 1 {
			b.Fatalf("reconfig gate: warm sweep ran %d syntheses, want exactly 1 (the novel point)", f.warmRuns)
		}
		if f.loaded != uint64(f.points) {
			b.Fatalf("reconfig gate: warm-loaded %d images, want %d", f.loaded, f.points)
		}
		b.Logf("reconfig gate: %.1f%% hit ratio over %d requests, %.0f modelled hours saved, warm sweep %v",
			f.ratio*100, f.requests, f.savedH, f.warmWall)
	}
	out := os.Getenv("LIQUID_RECONFIG_JSON")
	if out == "" {
		return
	}
	var j benchReconfigJSON
	j.Figure = fmt.Sprintf("Reconfiguration as a service: a cold node pregenerates a %d-point configuration sweep into the persistent store, then a restarted node warm-loads it and serves %d reconfigure requests (three passes plus one novel point) — BenchmarkReconfigColdWarm", f.points, f.requests)
	j.Data.SpacePoints = f.points
	j.Data.WarmRequests = f.requests
	j.Data.WarmHits = f.hits
	j.Data.WarmHitRatio = round2(f.ratio)
	j.Data.ModelledHoursSaved = round2(f.savedH)
	j.Data.WarmSynthRuns = f.warmRuns
	j.Data.ImagesWarmLoaded = f.loaded
	j.Data.ColdPregenWallMs = round2(f.coldWall.Seconds() * 1000)
	j.Data.WarmSweepWallMs = round2(f.warmWall.Seconds() * 1000)
	j.Data.Host = hostinfo.Current()
	j.Data.Note = "Each point costs one modelled ≈1 h synthesis exactly once, in the cold pregeneration; the restarted node serves every revisit from the warm-loaded content-addressed store in microseconds. ModelledHoursSaved is the tool time the warm sweep would have spent without the cache."
	raw, err := json.MarshalIndent(&j, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		b.Fatalf("reconfig bench: write %s: %v", out, err)
	}
	b.Logf("reconfig bench: wrote %s", out)
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
