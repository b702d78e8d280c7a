// Package core is the Liquid Architecture system — the paper's primary
// contribution assembled from its substrates. A System owns one FPX
// node whose processor microarchitecture is liquid: it can be
// instantiated at any point of the configuration space, loaded with
// programs (compiled from C or assembled), executed with a hardware
// cycle counter, traced, and reconfigured at runtime from the
// reconfiguration cache of pre-synthesized images, locally or over the
// network (Fig. 1).
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"liquidarch/internal/archgen"
	"liquidarch/internal/cache"
	"liquidarch/internal/cpu"
	"liquidarch/internal/fpx"
	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/netproto"
	"liquidarch/internal/reconfig"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
	"liquidarch/internal/trace"
	"liquidarch/internal/tracing"
)

// Options configures a System beyond the processor configuration.
type Options struct {
	// UARTOut receives the processor's serial output (nil discards).
	UARTOut io.Writer
	// Synth tunes the synthesis model.
	Synth synth.Options
	// CacheCapacity bounds the reconfiguration cache (0 = unbounded).
	CacheCapacity int
	// CacheDir, when set, backs the reconfiguration cache with a
	// persistent content-addressed store: previously synthesized
	// images are warm-loaded at startup and every new synthesis is
	// written through, so a restarted node keeps its hour-equivalents
	// of tool time.
	CacheDir string
	// SynthWorkers bounds the synthesis pool (0 = GOMAXPROCS).
	SynthWorkers int
	// Manager, when set, is a shared reconfiguration manager: every
	// board of a multi-board node passes the same one, so their
	// requests dedup onto one synthesis pool and one cache.
	// CacheCapacity, CacheDir and SynthWorkers are then ignored.
	Manager *reconfig.Manager
	// DisablePartial forces every reconfiguration through a full
	// image load even when only the cache modules changed (ablation
	// of the partial-runtime-reconfiguration path of [2]).
	DisablePartial bool
	// IP and Port identify the FPX node on the network (defaults
	// 10.0.0.2:5001).
	IP   [4]byte
	Port uint16
	// Clock is the system's time source (nil = real time). Simulated
	// nodes inject a virtual clock; it paces run wall-duration
	// measurement, reconfiguration waits and the modelled synthesis
	// delay.
	Clock sim.Clock
}

func (o Options) withDefaults() Options {
	if o.IP == ([4]byte{}) {
		o.IP = [4]byte{10, 0, 0, 2}
	}
	if o.Port == 0 {
		o.Port = 5001
	}
	return o
}

// System is one liquid-architecture FPX node. Execution is owned by a
// per-board actor goroutine (leon.AsyncController) that lives as long
// as the board: every run, load, memory access and bitfile reload is
// serialized through it, so the SoC is goroutine-confined and the
// control plane (status, stats, traces) stays responsive while a
// program runs.
type System struct {
	mu   sync.Mutex
	opts Options

	cfg      leon.Config
	actrl    *leon.AsyncController
	platform *fpx.Platform
	manager  *reconfig.Manager

	active     *synth.Image
	loadedProg *link.Image

	// pending is the one asynchronous reconfiguration this board can
	// have in flight; lastReconfig records the most recent terminal
	// outcome for status polls after completion. Both under s.mu.
	pending      *pendingReconfig
	lastReconfig netproto.ReconfigStatusResp
	// wake is the board's wake hook (see tracedControl.SetRunDoneHook),
	// nil while none is installed. Under s.mu.
	wake func()

	// lastTrace is the last networked run's trace summary, served by
	// CmdTraceReport.
	traceMu   sync.Mutex
	lastTrace *trace.Summary

	m systemMetrics
}

// New synthesizes (or loads from a fresh or persistent cache) the
// initial configuration, instantiates the processor system and boots
// it.
func New(cfg leon.Config, opts Options) (_ *System, err error) {
	opts = opts.withDefaults()
	if opts.Synth.Clock == nil {
		opts.Synth.Clock = opts.Clock
	}
	soc, err := leon.New(cfg, opts.UARTOut)
	if err != nil {
		return nil, err
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		return nil, err
	}
	s := &System{opts: opts, cfg: cfg, manager: opts.Manager, actrl: leon.NewAsyncController(ctrl)}
	defer func() {
		if err != nil {
			s.actrl.Close()
		}
	}()
	s.actrl.SetClock(opts.Clock)
	if s.manager == nil {
		s.manager = reconfig.NewManagerWorkers(
			reconfig.NewCache(opts.CacheCapacity), opts.Synth, opts.SynthWorkers)
	}
	s.platform = fpx.New(tracedControl{s.actrl, s}, opts.IP, opts.Port)
	s.manager.Cache().SetLog(s.platform.Events())
	if opts.Manager == nil && opts.CacheDir != "" {
		// Persistent store: write-through from now on, then warm-load
		// whatever a previous life of this node synthesized.
		if err := s.manager.Cache().SetDir(opts.CacheDir); err != nil {
			return nil, err
		}
		if err := s.manager.Cache().Load(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	img, hit, err := s.manager.GetOrSynthesize(cfg)
	if err != nil {
		return nil, err
	}
	s.active = img
	s.platform.ReconfigAsyncFn = s.reconfigAsyncFromSpec
	s.platform.ReconfigStatusFn = s.ReconfigureStatus
	s.platform.ConfigFn = func() []byte {
		blob, _ := json.Marshal(SpecFromConfig(s.Config()))
		return blob
	}
	s.platform.TraceFn = s.traceReportJSON
	s.instrument()
	if !hit {
		// Account for the initial synthesis (the registry did not
		// exist yet when it ran).
		s.m.synthRuns.Inc()
		s.m.synthModel.Observe(img.SynthTime.Seconds())
	}
	return s, nil
}

// Close shuts down the board actor. In-flight runs are abandoned;
// subsequent executions fail. The System is not usable afterwards.
func (s *System) Close() { s.actrl.Close() }

// Config returns the active configuration.
func (s *System) Config() leon.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// ActiveImage returns the loaded FPGA image.
func (s *System) ActiveImage() *synth.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Platform returns the FPX platform (mount it on a server to go
// remote).
func (s *System) Platform() *fpx.Platform { return s.platform }

// AsyncCtrl returns the board actor driving execution for this
// System: the same one for the System's whole life, full
// reconfigurations included.
func (s *System) AsyncCtrl() *leon.AsyncController { return s.actrl }

// SoC returns the current processor system (nil once the System is
// closed). A full reconfiguration replaces it, and the board actor
// steps it, so touch it through AsyncCtrl().Do while a run may be in
// flight.
func (s *System) SoC() *leon.SoC {
	var soc *leon.SoC
	_ = s.actrl.Do(func(c *leon.Controller) { soc = c.SoC() })
	return soc
}

// Manager returns the reconfiguration cache manager.
func (s *System) Manager() *reconfig.Manager { return s.manager }

// Reconfigure swaps the node to cfg: the image comes from the
// reconfiguration cache when pre-generated (milliseconds) or a fresh
// synthesis run (≈1 modelled hour). Board memories — and therefore the
// loaded program and its data — survive the swap, exactly as the FPX's
// external SRAM/SDRAM survive FPGA reprogramming: a full swap builds
// the new SoC on the same SRAM and SDRAM (leon.SoC.Reload), so nothing
// is copied, and a cfg whose memory sizes differ from the board's is
// refused with the old configuration left running.
//
// When only the cache modules differ from the active configuration,
// the swap is performed as a partial runtime reconfiguration in the
// style of the paper's reference [2]: the cache plugins are replaced
// under the live processor, without a reset (disable with
// Options.DisablePartial). A full swap requested while a run is in
// flight waits for the run to complete.
func (s *System) Reconfigure(cfg leon.Config) (cacheHit bool, err error) {
	return s.ReconfigureCtx(tracing.Ctx{}, cfg)
}

// ReconfigureCtx is Reconfigure under an exchange-trace context: it is
// ReconfigureAsyncCtx followed by WaitReconfigure, so the swap records
// the same "reconfigure" span (cache outcome, partial|full, with a
// "synthesize" child for a miss) as a networked reconfiguration.
func (s *System) ReconfigureCtx(tc tracing.Ctx, cfg leon.Config) (cacheHit bool, err error) {
	st, err := s.ReconfigureAsyncCtx(tc, cfg)
	if err == nil && !st.Terminal() {
		st, err = s.WaitReconfigure(context.Background())
	}
	if err != nil {
		return false, err
	}
	if st.State != netproto.ReconfigApplied {
		return false, errors.New(st.Msg)
	}
	return st.CacheHit, nil
}

// applyLocked swaps the board to cfg/img with s.mu held: a partial
// (cache-plugin) swap when only the caches differ — legal under a live
// processor — otherwise a full rebuild, which requires an idle board.
// synthesized records whether this request paid the modelled tool run
// itself (false for cache hits and for requests that coalesced onto
// another caller's synthesis).
func (s *System) applyLocked(cfg leon.Config, img *synth.Image, hit, synthesized bool) (partial bool, err error) {
	if !s.opts.DisablePartial && onlyCachesDiffer(s.cfg, cfg) {
		// Partial runtime reconfiguration: the cache-plugin swap runs
		// on the actor goroutine, between step slices — legal even
		// under a live processor, which is the whole point of [2].
		var swapErr error
		if derr := s.actrl.Do(func(c *leon.Controller) {
			swapErr = c.SoC().SwapCaches(cfg.ICache, cfg.DCache)
		}); derr != nil {
			return true, derr
		}
		if swapErr != nil {
			return true, swapErr
		}
		s.cfg, s.active = cfg, img
		s.observeReconfigure(hit, true, synthesized, img.SynthTime)
		return true, nil
	}
	// A full image load reprograms the board on its actor, between step
	// slices, so it is ordered after every load or write the actor has
	// acknowledged. The actor refuses it with leon.ErrRunning while a
	// run is in flight: the pending swap parks and lands at run
	// completion.
	if err := s.actrl.Reload(cfg); err != nil {
		return false, err
	}
	s.platform.SetControl()
	s.cfg, s.active = cfg, img
	s.observeReconfigure(hit, false, synthesized, img.SynthTime)
	return false, nil
}

// onlyCachesDiffer reports whether a↦b changes nothing outside the
// cache modules (the partial-reconfiguration region).
func onlyCachesDiffer(a, b leon.Config) bool {
	a.ICache, b.ICache = cache.Config{}, cache.Config{}
	a.DCache, b.DCache = cache.Config{}, cache.Config{}
	return a == b
}

// CompileC compiles Liquid-C source and links it into a loadable
// image (the gcc → GAS → LD → OBJCOPY pipeline of Fig. 4).
func (s *System) CompileC(src string, copts lcc.Options) (*link.Image, error) {
	asmSrc, err := lcc.Compile(src, copts)
	if err != nil {
		return nil, err
	}
	return link.Build(asmSrc, link.Options{
		StackTop: leon.SRAMBase + uint32(s.Config().SRAMSize),
	})
}

// BuildASM links hand-written assembly (with crt0; define main).
func (s *System) BuildASM(src string) (*link.Image, error) {
	return link.Build(src, link.Options{
		StackTop: leon.SRAMBase + uint32(s.Config().SRAMSize),
	})
}

// Load places an image in SRAM through the leon_ctrl user port (the
// request is served by the board actor, so it is rejected while a run
// is in flight, like the hardware path).
func (s *System) Load(img *link.Image) error {
	if err := s.actrl.LoadProgram(img.Origin, img.Code); err != nil {
		return err
	}
	s.mu.Lock()
	s.loadedProg = img
	s.mu.Unlock()
	return nil
}

// Run executes a loaded image and returns the cycle-counter report.
// budget 0 means the controller default. The run is driven by the
// board actor; Run blocks until it completes (use the network client's
// StartAsync/WaitResult, or the actor directly, for the asynchronous
// shape).
func (s *System) Run(img *link.Image, budget uint64) (leon.RunResult, error) {
	if err := s.Load(img); err != nil {
		return leon.RunResult{}, err
	}
	return s.actrl.ExecuteOpts(img.Entry, budget, leon.RunOptions{
		After: func(c *leon.Controller, res leon.RunResult, wall time.Duration, err error) {
			s.observeRun(res, wall, err)
		},
	})
}

// RunWithTrace executes a loaded image with the trace analyzer
// attached, returning the recording for the Fig. 1 feedback loop. The
// recorder is attached and detached on the actor goroutine, so it
// observes exactly this run.
func (s *System) RunWithTrace(img *link.Image, budget uint64) (leon.RunResult, *trace.Recorder, error) {
	if err := s.Load(img); err != nil {
		return leon.RunResult{}, nil, err
	}
	var rec *trace.Recorder
	res, err := s.actrl.ExecuteOpts(img.Entry, budget, leon.RunOptions{
		Before: func(c *leon.Controller) {
			rec = trace.NewRecorder()
			rec.Attach(c.SoC().CPU)
		},
		After: func(c *leon.Controller, res leon.RunResult, wall time.Duration, err error) {
			rec.Detach()
			s.observeRun(res, wall, err)
		},
	})
	return res, rec, err
}

// ExitValue reads the word where crt0 stored main's return value.
func (s *System) ExitValue(img *link.Image) (uint32, error) {
	addr := img.ExitValueAddr()
	if addr == 0 {
		return 0, fmt.Errorf("core: image has no __exit_value (standalone?)")
	}
	b, err := s.ReadMemory(addr, 4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// ReadMemory reads through the user-side memory ports. Mid-run reads
// are legal (the FPX SDRAM controller arbitrates the network port
// against the processor, §2.4) and are served between step slices.
func (s *System) ReadMemory(addr uint32, n int) ([]byte, error) {
	return s.actrl.ReadMemory(addr, n)
}

// TuneReport is the outcome of one AutoTune pass: the Fig. 1 loop of
// trace → analyze → generate → reconfigure → re-measure.
type TuneReport struct {
	Baseline    leon.RunResult
	BaselineCfg leon.Config
	Tuned       leon.RunResult
	TunedCfg    leon.Config
	Best        archgen.Candidate
	Candidates  []archgen.Candidate
	CacheHit    bool
	// Speedup is baseline cycles / tuned cycles.
	Speedup float64
	// WallSpeedup folds in the synthesized clock frequencies.
	WallSpeedup float64
}

// AutoTune runs img on the current configuration under the trace
// analyzer, explores the space, reconfigures to the best candidate and
// re-runs — the complete application reconfigurability environment of
// Fig. 1 in one call.
func (s *System) AutoTune(img *link.Image, space archgen.Space, budget uint64) (*TuneReport, error) {
	baseCfg := s.Config()
	baseFMax := synth.Estimate(baseCfg).FMaxMHz
	baseline, rec, err := s.RunWithTrace(img, budget)
	if err != nil {
		return nil, err
	}
	if baseline.Faulted {
		return nil, fmt.Errorf("core: baseline run faulted (tt=%#x)", baseline.TT)
	}
	space.Base = baseCfg
	candidates, err := archgen.Explore(rec, space, archgen.Options{})
	if err != nil {
		return nil, err
	}
	best := candidates[0]
	hit, err := s.Reconfigure(best.Config)
	if err != nil {
		return nil, err
	}
	tuned, err := s.Run(img, budget)
	if err != nil {
		return nil, err
	}
	rep := &TuneReport{
		Baseline:    baseline,
		BaselineCfg: baseCfg,
		Tuned:       tuned,
		TunedCfg:    best.Config,
		Best:        best,
		Candidates:  candidates,
		CacheHit:    hit,
	}
	if tuned.Cycles > 0 {
		rep.Speedup = float64(baseline.Cycles) / float64(tuned.Cycles)
		tunedFMax := synth.Estimate(best.Config).FMaxMHz
		rep.WallSpeedup = (float64(baseline.Cycles) / (baseFMax * 1e6)) /
			(float64(tuned.Cycles) / (tunedFMax * 1e6))
	}
	return rep, nil
}

// Spec is the flat, JSON-friendly wire form of a configuration, used
// by the CmdReconfigure/CmdGetConfig network commands and the CLI.
type Spec struct {
	NWindows      int   `json:"nwindows,omitempty"`
	MulDiv        *bool `json:"muldiv,omitempty"`
	MAC           *bool `json:"mac,omitempty"`
	PipelineDepth int   `json:"pipeline_depth,omitempty"`
	ICacheBytes   int   `json:"icache_bytes,omitempty"`
	ICacheLine    int   `json:"icache_line,omitempty"`
	ICacheAssoc   int   `json:"icache_assoc,omitempty"`
	DCacheBytes   int   `json:"dcache_bytes,omitempty"`
	DCacheLine    int   `json:"dcache_line,omitempty"`
	DCacheAssoc   int   `json:"dcache_assoc,omitempty"`
	DCacheWB      *bool `json:"dcache_writeback,omitempty"`
	BurstWords    int   `json:"burst_words,omitempty"`
}

// SpecFromConfig flattens a configuration.
func SpecFromConfig(cfg leon.Config) Spec {
	md, mac, wb := cfg.CPU.MulDiv, cfg.CPU.MAC, cfg.DCache.Write == cache.WriteBack
	return Spec{
		NWindows:      cfg.CPU.NWindows,
		MulDiv:        &md,
		MAC:           &mac,
		PipelineDepth: cfg.CPU.Depth(),
		ICacheBytes:   cfg.ICache.SizeBytes,
		ICacheLine:    cfg.ICache.LineBytes,
		ICacheAssoc:   cfg.ICache.Assoc,
		DCacheBytes:   cfg.DCache.SizeBytes,
		DCacheLine:    cfg.DCache.LineBytes,
		DCacheAssoc:   cfg.DCache.Assoc,
		DCacheWB:      &wb,
		BurstWords:    cfg.BurstWords,
	}
}

// ToConfig applies the spec's set fields over a base configuration and
// validates the result.
func (sp Spec) ToConfig(base leon.Config) (leon.Config, error) {
	cfg := base
	if sp.NWindows != 0 {
		cfg.CPU.NWindows = sp.NWindows
	}
	if sp.MulDiv != nil {
		cfg.CPU.MulDiv = *sp.MulDiv
	}
	if sp.MAC != nil {
		cfg.CPU.MAC = *sp.MAC
	}
	if sp.PipelineDepth != 0 {
		cfg.CPU.PipelineDepth = sp.PipelineDepth
		cfg.CPU.Timing = cpu.TimingForDepth(sp.PipelineDepth)
	}
	if sp.ICacheBytes != 0 {
		cfg.ICache.SizeBytes = sp.ICacheBytes
	}
	if sp.ICacheLine != 0 {
		cfg.ICache.LineBytes = sp.ICacheLine
	}
	if sp.ICacheAssoc != 0 {
		cfg.ICache.Assoc = sp.ICacheAssoc
	}
	if sp.DCacheBytes != 0 {
		cfg.DCache.SizeBytes = sp.DCacheBytes
	}
	if sp.DCacheLine != 0 {
		cfg.DCache.LineBytes = sp.DCacheLine
	}
	if sp.DCacheAssoc != 0 {
		cfg.DCache.Assoc = sp.DCacheAssoc
	}
	if sp.DCacheWB != nil {
		if *sp.DCacheWB {
			cfg.DCache.Write = cache.WriteBack
		} else {
			cfg.DCache.Write = cache.WriteThrough
		}
	}
	if sp.BurstWords != 0 {
		cfg.BurstWords = sp.BurstWords
	}
	if err := cfg.Validate(); err != nil {
		return leon.Config{}, fmt.Errorf("core: invalid spec: %w", err)
	}
	return cfg, nil
}
