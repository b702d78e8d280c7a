package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"liquidarch/internal/cache"
	"liquidarch/internal/core"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/synth"
	"liquidarch/internal/tracing"
)

// nodeSynth matches the synthesis options of the stock liquid-server.
var nodeSynth = synth.Options{BitstreamBytes: 65536}

// point is one configuration the processor is swapped to, and the
// program it then runs.
type point struct {
	cfg  leon.Config
	prog *program
}

// refTable holds each point's simulated cycles and instructions, learnt
// from the first warm-up op at that point and checked on every later op.
type refTable struct {
	mu     sync.Mutex
	cycles map[int][2]uint64
	frozen bool // set after the warm-up: nothing more is learnt
}

func newRefTable() *refTable { return &refTable{cycles: map[int][2]uint64{}} }

func (r *refTable) freeze() {
	r.mu.Lock()
	r.frozen = true
	r.mu.Unlock()
}

func (r *refTable) check(p int, cycles, insts uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.cycles[p]
	if !ok && !r.frozen {
		r.cycles[p] = [2]uint64{cycles, insts}
		return nil
	}
	if !ok {
		return fmt.Errorf("point %d: no reference cycles", p)
	}
	if ref != [2]uint64{cycles, insts} {
		return fmt.Errorf("point %d: %d cycles / %d instructions, reference %d / %d", p, cycles, insts, ref[0], ref[1])
	}
	return nil
}

// checkOutput compares an op's exit value with the Go-computed one.
func checkOutput(p int, got, want uint32, o options) error {
	if o.corruptExpect && p == 0 {
		want ^= 1
	}
	if got != want {
		return fmt.Errorf("point %d: exit value %#x, want %#x", p, got, want)
	}
	return nil
}

// sweepPoints is the in-process sweep's point list: the Fig. 7 kernel at
// the Fig. 8 data-cache sizes, the code-footprint kernel at instruction
// cache sizes 512 B - 4 KB, and the SDRAM dot product at data-cache
// associativity 1, 2 and 4.
func sweepPoints(rng *rand.Rand, builds *[]time.Duration) ([]point, error) {
	f7, err := fig7(rng, 32768, 0, builds)
	if err != nil {
		return nil, err
	}
	fp, err := footprint(rng, 1024, builds)
	if err != nil {
		return nil, err
	}
	dp, err := dot(rng, 64, builds)
	if err != nil {
		return nil, err
	}
	var pts []point
	for _, kb := range []int{1, 2, 4, 8, 16} {
		cfg := leon.DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: kb << 10, LineBytes: 32, Assoc: 1}
		pts = append(pts, point{cfg, f7})
	}
	for _, b := range []int{512, 1 << 10, 2 << 10, 4 << 10} {
		cfg := leon.DefaultConfig()
		cfg.ICache = cache.Config{SizeBytes: b, LineBytes: 32, Assoc: 1}
		pts = append(pts, point{cfg, fp})
	}
	for _, ways := range []int{1, 2, 4} {
		cfg := leon.DefaultConfig()
		cfg.DCache = cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: ways, Replacement: cache.LRU}
		pts = append(pts, point{cfg, dp})
	}
	return pts, nil
}

// sweep is the in-process workload: one goroutine, one core.System.
type sweep struct {
	base
	sys    *core.System
	points []point
	order  []int
	pos    int // ops issued so far: the walk position
	// SDRAM controller and adapter counters survive partial swaps, so a
	// run's counts are deltas from the previous op's readings.
	prevSDRAM, prevRMW uint64
}

// setupSweep boots the node, builds the kernels, and runs the warm-up
// passes (which also synthesize every image).
func setupSweep(o options) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	sys, err := core.New(leon.DefaultConfig(), core.Options{Synth: nodeSynth})
	if err != nil {
		return nil, err
	}
	s := &sweep{base: base{o: o, refs: newRefTable(), nlanes: 1, runKey: "bench/call:Run"}, sys: sys}
	if s.points, err = sweepPoints(rng, &s.builds); err != nil {
		sys.Close()
		return nil, err
	}
	s.order = rng.Perm(len(s.points))
	s.npoints, s.do = len(s.points), s.op
	s.warm = warmUp(1, s.npoints, s.do)
	s.refs.freeze()
	return s, nil
}

func (s *sweep) nodePID() int { return 0 }

func (s *sweep) close() { s.sys.Close() }

// op runs one point: swap to it, run its kernel, read the exit value.
func (s *sweep) op(int) (op, time.Duration) {
	p := s.order[s.pos%len(s.order)]
	s.pos++
	pt := s.points[p]
	id, root := s.tr.begin(nil)
	var nodeCtx tracing.Ctx
	if s.tr != nil {
		nodeCtx = s.tr.node.Trace(id)
	}
	o := op{point: p}
	t0 := time.Now()
	call := root.Ctx().Start("call:Reconfigure")
	_, err := s.sys.ReconfigureCtx(nodeCtx, pt.cfg)
	call.End()
	if err != nil {
		o.err = fmt.Errorf("reconfigure: %w", err)
		return s.afterOp(o, id, root)
	}
	call = root.Ctx().Start("call:Run")
	tr := time.Now()
	res, err := s.sys.Run(pt.prog.img, 0)
	o.run = time.Since(tr)
	call.End()
	if err != nil || res.Faulted {
		o.err = fmt.Errorf("run: %v (faulted %v)", err, res.Faulted)
		return s.afterOp(o, id, root)
	}
	call = root.Ctx().Start("call:ExitValue")
	ev, err := s.sys.ExitValue(pt.prog.img)
	call.End()
	o.lat, o.cycles, o.insts = time.Since(t0), res.Cycles, res.Instructions
	if err != nil {
		o.err = fmt.Errorf("exit value: %w", err)
	} else if o.err = checkOutput(p, ev, pt.prog.expect, s.o); o.err == nil {
		o.err = s.refs.check(p, res.Cycles, res.Instructions)
	}
	return s.afterOp(o, id, root)
}

// afterOp is a traced op's epilogue, outside the timed op: collect its
// spans and its exact counts.
func (s *sweep) afterOp(o op, id uint64, root tracing.SpanHandle) (op, time.Duration) {
	if s.tr == nil {
		return o, 0
	}
	t0 := time.Now()
	if err := s.tr.finish(id, root, nil); err != nil && o.err == nil {
		o.err = err
	}
	o.exact = s.exact()
	return o, time.Since(t0)
}

// exact reads the run's exact hardware counts from the SoC: the caches
// are fresh after every swap, the SDRAM counters are deltas.
func (s *sweep) exact() *exactCounts {
	var e exactCounts
	s.sys.AsyncCtrl().Do(func(c *leon.Controller) {
		soc := c.SoC()
		d, i := soc.DCache.Stats(), soc.ICache.Stats()
		e = exactCounts{
			dAccesses: d.Hits + d.Misses, dMisses: d.Misses,
			iAccesses: i.Hits + i.Misses, iMisses: i.Misses,
			sdramRequests: soc.SDRAMCtrl.Stats().Requests,
			rmwCycles:     soc.Adapter.Stats().RMWCycles,
		}
	})
	sd, rmw := e.sdramRequests, e.rmwCycles
	e.sdramRequests -= s.prevSDRAM
	e.rmwCycles -= s.prevRMW
	s.prevSDRAM, s.prevRMW = sd, rmw
	return &e
}

// counters reads the reconfiguration cache and manager counters.
func (s *sweep) counters() (func() (counterDeltas, error), error) {
	mgr := s.sys.Manager()
	c0, m0 := mgr.Cache().Stats(), mgr.Stats()
	return func() (counterDeltas, error) {
		c1, m1 := mgr.Cache().Stats(), mgr.Stats()
		return counterDeltas{
			cacheHits:   float64(c1.Hits - c0.Hits),
			cacheMisses: float64(c1.Misses - c0.Misses),
			synthRuns:   float64(m1.SynthRuns - m0.SynthRuns),
			coalesced:   float64(m1.Coalesced - m0.Coalesced),
		}, nil
	}, nil
}

func (s *sweep) startTrace(t *tracer) error {
	s.tr = t
	s.exact() // the first traced op's SDRAM counts are deltas from here
	return nil
}

// inproc is the untraced ops' run time per instruction: sweep's own
// runs are the in-process path.
func (s *sweep) inproc(untraced *window) (float64, error) {
	var run time.Duration
	var insts uint64
	for _, o := range untraced.good() {
		run += o.run
		insts += o.insts
	}
	return ratio(float64(run), float64(insts)), nil
}

// inprocNsPerInst runs prog at each configuration on a local
// core.System — the superblock path with no per-run recorder — and
// returns host nanoseconds per simulated instruction over three passes
// after a warm-up pass. Remote workloads report it next to their own
// leon.host_ns_per_inst, so the cost of the networked run path shows.
func inprocNsPerInst(cfgs []leon.Config, img *link.Image) (float64, error) {
	sys, err := core.New(leon.DefaultConfig(), core.Options{Synth: nodeSynth})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	var run time.Duration
	var insts uint64
	for pass := 0; pass < 4; pass++ {
		for _, cfg := range cfgs {
			if _, err := sys.Reconfigure(cfg); err != nil {
				return 0, err
			}
			t0 := time.Now()
			res, err := sys.Run(img, 0)
			if err != nil {
				return 0, err
			}
			if pass > 0 {
				run += time.Since(t0)
				insts += res.Instructions
			}
		}
	}
	return ratio(float64(run), float64(insts)), nil
}
