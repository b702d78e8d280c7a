package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"liquidarch/internal/cache"
	"liquidarch/internal/client"
	"liquidarch/internal/core"
	"liquidarch/internal/cpu"
	"liquidarch/internal/leon"
	"liquidarch/internal/link"
	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// remoteLane is one closed-loop client bound to one board of the node.
type remoteLane struct {
	c     *client.Client
	order []int
	pos   int // ops issued so far: the walk position
	// last is the point of the lane's previous op; prev its counters
	// after that op (traced windows).
	last int
	prev metrics.Snapshot
}

// next returns the lane's next point and advances its walk.
func (ln *remoteLane) next() int {
	p := ln.order[ln.pos%len(ln.order)]
	ln.pos++
	return p
}

// statsSnap fetches the board's telemetry snapshot over the control
// channel; n is the response body length.
func statsSnap(c *client.Client) (snap metrics.Snapshot, n int, err error) {
	body, err := c.Stats()
	if err != nil {
		return snap, 0, fmt.Errorf("stats: %w", err)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, 0, fmt.Errorf("stats: %w", err)
	}
	return snap, len(body), nil
}

func gauge(s metrics.Snapshot, name string) uint64 { return uint64(s.Gauges[name]) }

// exactFromStats derives one run's exact hardware counts from the board
// counters read after it. Caches are fresh after a swap (fresh caches:
// read them as they are); the SDRAM controller and adapter are fresh
// only after a full swap (fresh SoC), otherwise the run's counts are the
// difference from the previous reading.
func exactFromStats(prev, cur metrics.Snapshot, freshCaches, freshSoC bool) *exactCounts {
	get := func(name string, fresh bool) uint64 {
		if fresh {
			return gauge(cur, name)
		}
		return gauge(cur, name) - gauge(prev, name)
	}
	dh, dm := get("liquid_dcache_hits", freshCaches), get("liquid_dcache_misses", freshCaches)
	ih, im := get("liquid_icache_hits", freshCaches), get("liquid_icache_misses", freshCaches)
	return &exactCounts{
		dAccesses: dh + dm, dMisses: dm,
		iAccesses: ih + im, iMisses: im,
		sdramRequests: get("liquid_sdram_requests", freshSoC),
		rmwCycles:     get("liquid_sdram_rmw_cycles", freshSoC),
	}
}

// remoteBase is what both remote workloads share: the node process and
// its clients.
type remoteBase struct {
	base
	node  *node
	lanes []*remoteLane
	// inprocCfgs and inprocImg are the workload's points and kernel, run
	// in process for leon.host_ns_per_inst_inproc.
	inprocCfgs []leon.Config
	inprocImg  *link.Image
}

func newRemoteBase(o options) remoteBase {
	return remoteBase{base: base{o: o, refs: newRefTable(), runKey: "node/run"}}
}

func (b *remoteBase) nodePID() int { return b.node.pid() }

func (b *remoteBase) inproc(*window) (float64, error) {
	return inprocNsPerInst(b.inprocCfgs, b.inprocImg)
}

func (b *remoteBase) close() {
	for _, ln := range b.lanes {
		ln.c.Close()
	}
	if b.node != nil {
		b.node.stop()
	}
}

// dial connects one client per board.
func (b *remoteBase) dial(boards int) error {
	for i := 0; i < boards; i++ {
		c, err := client.Dial(b.node.addr)
		if err != nil {
			return err
		}
		c.Board = uint8(i)
		b.lanes = append(b.lanes, &remoteLane{c: c, last: -1})
	}
	b.nlanes = len(b.lanes)
	return nil
}

// afterOp is a traced op's epilogue, outside the timed op: fetch its
// spans, then read the board counters for its exact counts.
func (b *remoteBase) afterOp(l int, o *op, id uint64, root tracing.SpanHandle, freshCaches, freshSoC bool) time.Duration {
	if b.tr == nil {
		return 0
	}
	t0 := time.Now()
	ln := b.lanes[l]
	if err := b.tr.finish(id, root, ln.c); err != nil && o.err == nil {
		o.err = err
	}
	cur, _, err := statsSnap(ln.c)
	if err != nil {
		if o.err == nil {
			o.err = err
		}
		return time.Since(t0)
	}
	o.exact = exactFromStats(ln.prev, cur, freshCaches, freshSoC)
	ln.prev = cur
	return time.Since(t0)
}

// laneSnap is a lane's counters at one instant.
type laneSnap struct {
	board, client metrics.Snapshot
	statsBody     int
}

// snapshot reads every lane's counters. Board 0 carries the node-wide
// socket counters, so it is read first at the start of an interval and
// last at its end: the interval then holds 4n-2 datagrams of these
// stats exchanges themselves, which counters() takes out.
func (b *remoteBase) snapshot(end bool) ([]laneSnap, error) {
	out := make([]laneSnap, len(b.lanes))
	idx := make([]int, len(b.lanes))
	for i := range idx {
		idx[i] = i
		if end {
			idx[i] = len(idx) - 1 - i
		}
	}
	for _, i := range idx {
		s, n, err := statsSnap(b.lanes[i].c)
		if err != nil {
			return nil, err
		}
		out[i] = laneSnap{board: s, client: b.lanes[i].c.Metrics().Snapshot(), statsBody: n}
	}
	return out, nil
}

// sumLabelled sums a labelled counter family, leaving out the stats and
// traces commands the benchmark itself issues.
func sumLabelled(m map[string]uint64, family string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, family+"{") && !strings.Contains(k, `"stats"`) && !strings.Contains(k, `"traces"`) {
			sum += float64(v)
		}
	}
	return sum
}

// counters reads every lane's counters, node and client, at the start of
// an interval.
func (b *remoteBase) counters() (func() (counterDeltas, error), error) {
	s0, err := b.snapshot(false)
	if err != nil {
		return nil, err
	}
	return func() (counterDeltas, error) {
		s1, err := b.snapshot(true)
		if err != nil {
			return counterDeltas{}, err
		}
		return b.deltas(s0, s1), nil
	}, nil
}

func (b *remoteBase) startTrace(t *tracer) error {
	b.tr = t
	for _, ln := range b.lanes { // the first traced op's counts are deltas from here
		var err error
		if ln.prev, _, err = statsSnap(ln.c); err != nil {
			return err
		}
	}
	return nil
}

// deltas turns two snapshots into the interval's deltas.
func (b *remoteBase) deltas(s0, s1 []laneSnap) counterDeltas {
	var d counterDeltas
	for i := range s0 {
		a, z := s0[i], s1[i]
		d.clientRequests += sumLabelled(z.client.Counters, "liquid_client_requests_total") - sumLabelled(a.client.Counters, "liquid_client_requests_total")
		d.clientRetries += float64(z.client.Counter("liquid_client_retries_total") + z.client.Counter("liquid_client_timeouts_total") -
			a.client.Counter("liquid_client_retries_total") - a.client.Counter("liquid_client_timeouts_total"))
		d.fpxCommands += sumLabelled(z.board.Counters, "liquid_fpx_commands_total") - sumLabelled(a.board.Counters, "liquid_fpx_commands_total")
		d.chunks += float64(z.board.Counter("liquid_fpx_load_chunks_total") - a.board.Counter("liquid_fpx_load_chunks_total"))
		d.chunksApplied += float64(z.board.Counter("liquid_fpx_load_chunks_applied_total") - a.board.Counter("liquid_fpx_load_chunks_applied_total"))
	}
	a, z := s0[0].board, s1[0].board
	n := len(s0)
	d.datagrams = float64(z.Counter("liquid_server_datagrams_in_total")+z.Counter("liquid_server_datagrams_out_total")-
		a.Counter("liquid_server_datagrams_in_total")-a.Counter("liquid_server_datagrams_out_total")) - float64(4*n-2)
	// Stats exchanges inside the interval: board 0's first response and
	// last request, and both directions for every other board.
	hdr := len(netproto.Packet{Command: netproto.CmdStats, Board: 1, Seq: 1, HasSeq: true}.Marshal())
	statsBytes := (hdr + s0[0].statsBody) + hdr
	for i := 1; i < n; i++ {
		statsBytes += 2*hdr + s0[i].statsBody + s1[i].statsBody
	}
	d.bytes = float64(z.Counter("liquid_server_bytes_in_total")+z.Counter("liquid_server_bytes_out_total")-
		a.Counter("liquid_server_bytes_in_total")-a.Counter("liquid_server_bytes_out_total")) - float64(statsBytes)
	for k, v := range z.Counters {
		if strings.HasPrefix(k, "liquid_server_drops_total{") {
			d.drops += float64(v - a.Counters[k])
		}
	}
	for k, hv := range z.Histograms {
		if strings.HasPrefix(k, "liquid_server_handled_duration_seconds{") && !strings.Contains(k, `"stats"`) && !strings.Contains(k, `"traces"`) {
			d.handledCount += float64(hv.Count - a.Histograms[k].Count)
			d.handledSum += hv.Sum - a.Histograms[k].Sum
		}
	}
	d.cacheHits = float64(gauge(z, "liquid_reconfig_cache_hits") - gauge(a, "liquid_reconfig_cache_hits"))
	d.cacheMisses = float64(gauge(z, "liquid_reconfig_cache_misses") - gauge(a, "liquid_reconfig_cache_misses"))
	d.synthRuns = float64(gauge(z, "liquid_reconfig_synth_runs") - gauge(a, "liquid_reconfig_synth_runs"))
	d.coalesced = float64(gauge(z, "liquid_reconfig_coalesced") - gauge(a, "liquid_reconfig_coalesced"))
	return d
}

// ---- remote-run ----

// remoteRun is the wire-bound workload: one client loads an image of a
// seeded size, starts it, waits for it (server-held wait), and reads the
// sum and a slice of the data back.
type remoteRun struct {
	remoteBase
	prog     *program
	images   []remoteImage
	dataAddr uint32
}

// remoteChunks are the image sizes, in one-KB load chunks: 4 to 64.
func remoteChunks() []int {
	var out []int
	for n := 4; n <= 64; n += 4 {
		out = append(out, n)
	}
	return out
}

// dataOff is where the data block starts within a remote-run image.
const dataOff = 1024

func setupRemoteRun(o options) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	r := &remoteRun{remoteBase: newRemoteBase(o)}
	var err error
	if r.node, err = startNode(o, 1); err != nil {
		return nil, err
	}
	r.dataAddr = leon.DefaultLoadAddr + dataOff
	if r.prog, err = sumProgram(r.dataAddr, &r.builds); err != nil {
		r.close()
		return nil, err
	}
	if img := r.prog.img; img.Origin != leon.DefaultLoadAddr || len(img.Code) > dataOff {
		r.close()
		return nil, fmt.Errorf("sum program: origin %#x, %d bytes: does not fit before its data", img.Origin, len(img.Code))
	}
	for _, n := range remoteChunks() {
		r.images = append(r.images, buildRemoteImage(rng, r.prog.img.Code, dataOff, n))
	}
	if err := r.dial(1); err != nil {
		r.close()
		return nil, err
	}
	r.lanes[0].order = rng.Perm(len(r.images))
	r.npoints, r.do = len(r.images), r.op
	r.inprocCfgs, r.inprocImg = []leon.Config{leon.DefaultConfig()}, r.prog.img
	r.warm = warmUp(r.nlanes, r.npoints, r.do)
	r.refs.freeze()
	return r, nil
}

func (r *remoteRun) op(l int) (op, time.Duration) {
	ln := r.lanes[l]
	p := ln.next()
	im := r.images[p]
	img := r.prog.img
	c := ln.c
	id, root := r.tr.begin(c)
	fail := func(what string, err error) (op, time.Duration) {
		o := op{point: p, err: fmt.Errorf("%s: %w", what, err)}
		return o, r.afterOp(l, &o, id, root, false, false)
	}
	t0 := time.Now()
	call := root.Ctx().Start("call:LoadProgram")
	err := c.LoadProgram(img.Origin, im.bytes)
	call.End()
	if err != nil {
		return fail("load", err)
	}
	call = root.Ctx().Start("call:StartAsync")
	err = c.StartAsync(img.Entry, 0)
	call.End()
	if err != nil {
		return fail("start", err)
	}
	call = root.Ctx().Start("call:WaitResult")
	rep, err := c.WaitResult()
	call.End()
	if err != nil {
		return fail("wait", err)
	}
	call = root.Ctx().Start("call:ReadMemory")
	sum, err := c.ReadMemory(img.ExitValueAddr(), 4)
	var slice []byte
	if err == nil {
		slice, err = c.ReadMemory(r.dataAddr+uint32(im.readOff), readBackBytes)
	}
	call.End()
	o := op{point: p, lat: time.Since(t0), cycles: rep.Cycles, insts: rep.Instructions}
	switch {
	case err != nil:
		o.err = fmt.Errorf("read: %w", err)
	case rep.Status != netproto.StatusOK:
		o.err = fmt.Errorf("point %d: run status %d", p, rep.Status)
	case !bytes.Equal(slice, im.data[im.readOff:im.readOff+readBackBytes]):
		o.err = fmt.Errorf("point %d: read-back data differs from the loaded block", p)
	default:
		if o.err = checkOutput(p, binary.BigEndian.Uint32(sum), im.sum, r.o); o.err == nil {
			o.err = r.refs.check(p, rep.Cycles, rep.Instructions)
		}
	}
	return o, r.afterOp(l, &o, id, root, false, false)
}

// ---- explore ----

// explorePoint is one configuration of the explore walk; variant names
// its non-cache part (a change of variant is a full swap).
type explorePoint struct {
	cfg     leon.Config
	spec    []byte
	variant int
}

// exploreVariants are the processor variants the walk moves between:
// the base processor, 16 register windows, a 7-stage pipeline, and the
// MAC unit. Each is visited at three data-cache sizes.
func exploreVariants() []leon.Config {
	base := leon.DefaultConfig()
	windows, deep, mac := base, base, base
	windows.CPU.NWindows = 16
	deep.CPU.PipelineDepth = 7
	deep.CPU.Timing = cpu.TimingForDepth(7)
	mac.CPU.MAC = true
	return []leon.Config{base, windows, deep, mac}
}

var exploreDCache = []int{2 << 10, 4 << 10, 8 << 10}

// explore is the Fig. 1 loop on a two-board node: each client walks its
// own seeded sequence of reconfigure → start → wait → read. Its kernel
// is Fig. 7 at a quarter of the iterations, with the array in SDRAM.
type explore struct {
	remoteBase
	prog   *program
	points []explorePoint
}

// exploreOrder is one lane's walk: the variants in a seeded order, each
// visited at its three cache sizes in a seeded order. The first point of
// a variant is a full swap, the other two partial ones, so a third of
// the swaps are full whatever the seed.
func exploreOrder(rng *rand.Rand, nvariants, ncaches int) []int {
	var order []int
	for _, v := range rng.Perm(nvariants) {
		for _, c := range rng.Perm(ncaches) {
			order = append(order, v*ncaches+c)
		}
	}
	return order
}

func setupExplore(o options) (workload, error) {
	rng := rand.New(rand.NewSource(o.seed))
	e := &explore{remoteBase: newRemoteBase(o)}
	var err error
	if e.node, err = startNode(o, 2); err != nil {
		return nil, err
	}
	if e.prog, err = fig7(rng, 8192, fig7SDRAM, &e.builds); err != nil {
		e.close()
		return nil, err
	}
	var specs []json.RawMessage
	for v, cfg := range exploreVariants() {
		for _, size := range exploreDCache {
			cfg.DCache = cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1}
			spec, err := json.Marshal(core.SpecFromConfig(cfg))
			if err != nil {
				e.close()
				return nil, err
			}
			e.points = append(e.points, explorePoint{cfg: cfg, spec: spec, variant: v})
			specs = append(specs, spec)
		}
	}
	if err := e.dial(2); err != nil {
		e.close()
		return nil, err
	}
	for _, ln := range e.lanes {
		ln.order = exploreOrder(rng, len(exploreVariants()), len(exploreDCache))
	}
	// Prewarm the whole space on the shared synthesis pool, and load the
	// kernel on both boards (board memory survives every swap).
	if _, err := e.lanes[0].c.Prewarm(specs); err != nil {
		e.close()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	for _, ln := range e.lanes {
		if err := ln.c.LoadProgram(e.prog.img.Origin, e.prog.img.Code); err != nil {
			e.close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	e.npoints, e.do = len(e.points), e.op
	for _, pt := range e.points {
		e.inprocCfgs = append(e.inprocCfgs, pt.cfg)
	}
	e.inprocImg = e.prog.img
	e.warm = warmUp(e.nlanes, e.npoints, e.do)
	e.refs.freeze()
	return e, nil
}

func (e *explore) op(l int) (op, time.Duration) {
	ln := e.lanes[l]
	p := ln.next()
	pt := e.points[p]
	img := e.prog.img
	c := ln.c
	freshSoC := ln.last < 0 || e.points[ln.last].variant != pt.variant
	ln.last = p
	id, root := e.tr.begin(c)
	fail := func(what string, err error) (op, time.Duration) {
		o := op{point: p, err: fmt.Errorf("%s: %w", what, err)}
		return o, e.afterOp(l, &o, id, root, true, freshSoC)
	}
	t0 := time.Now()
	call := root.Ctx().Start("call:Reconfigure")
	err := c.Reconfigure(pt.spec)
	call.End()
	if err != nil {
		return fail("reconfigure", err)
	}
	call = root.Ctx().Start("call:StartAsync")
	err = c.StartAsync(img.Entry, 0)
	call.End()
	if err != nil {
		return fail("start", err)
	}
	call = root.Ctx().Start("call:WaitResult")
	rep, err := c.WaitResult()
	call.End()
	if err != nil {
		return fail("wait", err)
	}
	call = root.Ctx().Start("call:ReadMemory")
	ev, err := c.ReadMemory(img.ExitValueAddr(), 4)
	call.End()
	o := op{point: p, lat: time.Since(t0), cycles: rep.Cycles, insts: rep.Instructions}
	switch {
	case err != nil:
		o.err = fmt.Errorf("read: %w", err)
	case rep.Status != netproto.StatusOK:
		o.err = fmt.Errorf("point %d: run status %d", p, rep.Status)
	default:
		if o.err = checkOutput(p, binary.BigEndian.Uint32(ev), e.prog.expect, e.o); o.err == nil {
			o.err = e.refs.check(p, rep.Cycles, rep.Instructions)
		}
	}
	return o, e.afterOp(l, &o, id, root, true, freshSoC)
}
