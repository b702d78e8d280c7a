package core

import (
	"time"

	"liquidarch/internal/leon"
	"liquidarch/internal/metrics"
	"liquidarch/internal/metrics/eventlog"
)

// systemMetrics are the liquid-core instruments, registered on the
// node's platform registry so CmdStats and /metrics cover the whole
// stack in one snapshot.
type systemMetrics struct {
	runs       *metrics.Counter
	runFaults  *metrics.Counter
	runCycles  *metrics.Histogram
	runWall    *metrics.Histogram
	reconfigs  *metrics.CounterVec
	synthRuns  *metrics.Counter
	synthModel *metrics.Histogram

	// Simulator throughput: how fast the host executes simulated
	// instructions. The gauge holds the most recent run's rate, the
	// histogram the distribution across runs, so a /metrics scrape
	// shows both the current speed and its spread. Every instrument
	// in this struct is nil-safe (metrics methods no-op on nil
	// receivers), so observeRun never needs a guard even on a System
	// built without instrumentation.
	simMIPS     *metrics.Gauge
	simMIPSHist *metrics.Histogram
}

func newSystemMetrics(r *metrics.Registry) systemMetrics {
	return systemMetrics{
		runs:      r.Counter("liquid_core_runs_total", "Program executions on the liquid processor."),
		runFaults: r.Counter("liquid_core_run_faults_total", "Executions that ended in a trap."),
		runCycles: r.Histogram("liquid_core_run_cycles", "Hardware cycle-counter reading per run.", metrics.DefCycleBuckets),
		runWall:   r.Histogram("liquid_core_run_wall_seconds", "Host wall time per run.", metrics.DefSecondsBuckets),
		reconfigs: r.CounterVec("liquid_core_reconfigurations_total",
			"Architecture swaps by kind: hit/miss (reconfiguration cache) and partial/full (swap path); each swap counts one of each pair.", "kind"),
		synthRuns: r.Counter("liquid_core_synthesis_total", "Synthesis runs triggered by reconfiguration-cache misses."),
		synthModel: r.Histogram("liquid_core_synthesis_modelled_seconds",
			"Modelled tool time per synthesis run (≈1 h per configuration in the paper).", metrics.ExpBuckets(60, 2, 10)),
		simMIPS: r.Gauge("liquid_core_sim_mips",
			"Simulated million instructions per host-second of the most recent run."),
		simMIPSHist: r.Histogram("liquid_core_sim_mips_hist",
			"Distribution of per-run simulated-MIPS throughput.", metrics.ExpBuckets(1, 2, 12)),
	}
}

// Metrics returns the node-wide telemetry registry (owned by the FPX
// platform; server and core both register here).
func (s *System) Metrics() *metrics.Registry { return s.platform.Metrics() }

// Events returns the node-wide structured event log.
func (s *System) Events() *eventlog.Log { return s.platform.Events() }

// instrument registers the core's instruments and snapshot-refreshed
// gauges on the platform registry. The gauges read counters that
// already exist on the simulated hardware (cache Stats, SDRAM
// controller Stats, adapter Stats, reconfiguration cache Stats), so
// the execution hot path is untouched: values are pulled only when a
// snapshot or scrape happens.
func (s *System) instrument() {
	r := s.platform.Metrics()
	s.m = newSystemMetrics(r)

	// Processor caches. The SoC is rebuilt on full reconfiguration and
	// goroutine-confined to the board actor, so every read goes through
	// one actor round trip (served between step slices while a run is
	// in flight) — a mid-run /metrics scrape is race-free and never
	// waits on the whole execution.
	hw := func(read func(soc *leon.SoC) float64) func() float64 {
		return func() float64 {
			var v float64
			if err := s.actrl.Do(func(c *leon.Controller) { v = read(c.SoC()) }); err != nil {
				return 0
			}
			return v
		}
	}
	r.GaugeFunc("liquid_dcache_hits", "Data-cache read hits (current SoC).", hw(func(soc *leon.SoC) float64 { return float64(soc.DCache.Stats().Hits) }))
	r.GaugeFunc("liquid_dcache_misses", "Data-cache read misses (current SoC).", hw(func(soc *leon.SoC) float64 { return float64(soc.DCache.Stats().Misses) }))
	r.GaugeFunc("liquid_dcache_fills", "Data-cache line fills, i.e. evictions plus cold fills.", hw(func(soc *leon.SoC) float64 { return float64(soc.DCache.Stats().Fills) }))
	r.GaugeFunc("liquid_dcache_writebacks", "Dirty lines written back (write-back policy only).", hw(func(soc *leon.SoC) float64 { return float64(soc.DCache.Stats().WriteBacks) }))
	r.GaugeFunc("liquid_icache_hits", "Instruction-cache hits (current SoC).", hw(func(soc *leon.SoC) float64 { return float64(soc.ICache.Stats().Hits) }))
	r.GaugeFunc("liquid_icache_misses", "Instruction-cache misses (current SoC).", hw(func(soc *leon.SoC) float64 { return float64(soc.ICache.Stats().Misses) }))

	// FPX SDRAM controller and the §3.2 adapter.
	r.GaugeFunc("liquid_sdram_requests", "SDRAM controller handshakes.", hw(func(soc *leon.SoC) float64 { return float64(soc.SDRAMCtrl.Stats().Requests) }))
	r.GaugeFunc("liquid_sdram_arb_switches", "SDRAM grants that moved between modules.", hw(func(soc *leon.SoC) float64 { return float64(soc.SDRAMCtrl.Stats().ArbSwitch) }))
	r.GaugeFunc("liquid_sdram_rmw_cycles", "Cycles spent in the adapter's read-modify-write sequences (§3.2).", hw(func(soc *leon.SoC) float64 { return float64(soc.Adapter.Stats().RMWCycles) }))
	r.GaugeFunc("liquid_sdram_wasted_words", "32-bit words fetched beyond what the AHB asked for.", hw(func(soc *leon.SoC) float64 { return float64(soc.Adapter.Stats().WastedWords) }))

	// Reconfiguration cache economics.
	r.GaugeFunc("liquid_reconfig_cache_entries", "Images held by the reconfiguration cache.", func() float64 { return float64(s.manager.Cache().Len()) })
	r.GaugeFunc("liquid_reconfig_cache_hits", "Reconfiguration-cache hits.", func() float64 { return float64(s.manager.Cache().Stats().Hits) })
	r.GaugeFunc("liquid_reconfig_cache_misses", "Reconfiguration-cache misses (synthesis runs).", func() float64 { return float64(s.manager.Cache().Stats().Misses) })
	r.GaugeFunc("liquid_reconfig_cache_evictions", "Images evicted by the LRU bound.", func() float64 { return float64(s.manager.Cache().Stats().Evictions) })
	r.GaugeFunc("liquid_reconfig_cache_saved_seconds", "Modelled tool time avoided by cache hits.", func() float64 { return s.manager.Cache().Stats().SavedTime.Seconds() })

	// Synthesis service: the shared deduplicating worker pool and the
	// persistent content-addressed store behind it. Like the hardware
	// gauges these pull counters the service already keeps, so nothing
	// is added to the synthesis path itself.
	r.GaugeFunc("liquid_reconfig_queue_depth", "Synthesis tickets waiting for a pool slot.", func() float64 { return float64(s.manager.Stats().QueueDepth) })
	r.GaugeFunc("liquid_reconfig_inflight", "Synthesis runs currently executing.", func() float64 { return float64(s.manager.Stats().Inflight) })
	r.GaugeFunc("liquid_reconfig_coalesced", "Acquisitions that joined an in-flight synthesis instead of starting one.", func() float64 { return float64(s.manager.Stats().Coalesced) })
	r.GaugeFunc("liquid_reconfig_synth_runs", "Synthesis runs the shared pool has executed.", func() float64 { return float64(s.manager.Stats().SynthRuns) })
	r.GaugeFunc("liquid_reconfig_pool_utilization", "Fraction of synthesis workers busy (0–1).", func() float64 {
		st := s.manager.Stats()
		if st.Workers == 0 {
			return 0
		}
		return float64(st.Inflight) / float64(st.Workers)
	})
	r.GaugeFunc("liquid_reconfig_persist_hits", "Cache hits served by images warm-loaded from the on-disk store.", func() float64 { return float64(s.manager.Cache().Stats().PersistHits) })
	r.GaugeFunc("liquid_reconfig_persist_loaded", "Images warm-loaded from the on-disk store.", func() float64 { return float64(s.manager.Cache().Stats().PersistLoaded) })
	r.GaugeFunc("liquid_reconfig_persist_skipped", "On-disk entries skipped as corrupt or mismatched.", func() float64 { return float64(s.manager.Cache().Stats().PersistSkipped) })
	r.GaugeFunc("liquid_reconfig_persist_writes", "Images written through to the on-disk store.", func() float64 { return float64(s.manager.Cache().Stats().PersistWrites) })
}

// observeRun records one execution in the telemetry registry.
func (s *System) observeRun(res leon.RunResult, wall time.Duration, err error) {
	s.m.runs.Inc()
	s.m.runCycles.Observe(float64(res.Cycles))
	s.m.runWall.Observe(wall.Seconds())
	if secs := wall.Seconds(); secs > 0 && res.Instructions > 0 {
		mips := float64(res.Instructions) / secs / 1e6
		s.m.simMIPS.Set(mips)
		s.m.simMIPSHist.Observe(mips)
	}
	if err != nil || res.Faulted {
		s.m.runFaults.Inc()
	}
}

// observeReconfigure records one architecture swap. synthesized is
// true only when this swap's miss ran its own synthesis — a caller
// that coalesced onto another board's in-flight job still counts a
// miss, but the synthesis run itself is counted once, by the owner.
func (s *System) observeReconfigure(hit, partial, synthesized bool, synthTime time.Duration) {
	if hit {
		s.m.reconfigs.With("hit").Inc()
	} else {
		s.m.reconfigs.With("miss").Inc()
	}
	if synthesized {
		s.m.synthRuns.Inc()
		s.m.synthModel.Observe(synthTime.Seconds())
	}
	if partial {
		s.m.reconfigs.With("partial").Inc()
	} else {
		s.m.reconfigs.With("full").Inc()
	}
	s.platform.Events().Infof("reconfigured",
		"hit", hit, "partial", partial, "modelled_synth", synthTime)
}
