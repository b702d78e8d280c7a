package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"liquidarch/internal/client"
	"liquidarch/internal/tracing"
)

// layerDef is one per-layer metric: which end-to-end metric it should
// move, and on which workload.
type layerDef struct {
	name, unit, moves, on string
}

// layerTable lists every per-layer metric a traced run prints. Layers
// are the repository's modules. A metric a workload does not exercise
// (no wire on sweep, no swaps on remote-run) reads 0 there.
var layerTable = []layerDef{
	{"client.load_ms", "ms", "op_p50_ms, ops_per_s", "remote-run"},
	{"client.start_ms", "ms", "op_p50_ms, ops_per_s", "remote-run"},
	{"client.wait_ms", "ms", "op_p50_ms", "explore"},
	{"client.read_ms", "ms", "op_p50_ms, ops_per_s", "remote-run"},
	{"client.reconfigure_ms", "ms", "op_p90_ms", "explore"},
	{"client.exchanges_per_op", "count", "ops_per_s, op_p90_ms", "remote-run"},
	{"client.retries_per_op", "count", "ops_per_s, op_p90_ms", "remote-run"},
	{"netproto.datagrams_per_op", "count", "ops_per_s", "remote-run"},
	{"netproto.bytes_per_op", "B", "ops_per_s", "remote-run"},
	{"server.queue_ms", "ms", "op_p50_ms", "remote-run, explore"},
	{"server.park_ms", "ms", "op_p50_ms", "remote-run, explore"},
	{"server.handle_ms", "ms", "op_p50_ms", "remote-run"},
	{"server.drops_per_op", "count", "op_p50_ms, failures", "remote-run"},
	{"fpx.commands_per_op", "count", "ops_per_s", "remote-run"},
	{"fpx.chunk_apply_ratio", "ratio", "ops_per_s", "remote-run"},
	{"core.run_ms", "ms", "ops_per_s, op_p50_ms", "sweep, explore"},
	{"core.swap_partial_ms", "ms", "op_p90_ms, rss_mb", "explore"},
	{"core.swap_full_ms", "ms", "op_p90_ms, rss_mb", "explore"},
	{"core.partial_swap_ratio", "ratio", "op_p90_ms, rss_mb", "explore"},
	{"reconfig.cache_hit_ratio", "ratio", "op_p90_ms", "explore"},
	{"reconfig.synth_runs", "count", "op_p90_ms", "explore"},
	{"reconfig.coalesced", "count", "op_p90_ms", "explore"},
	{"leon.host_ns_per_inst", "ns", "sim_mips", "sweep, explore"},
	{"leon.host_ns_per_inst_inproc", "ns", "sim_mips", "sweep, explore"},
	{"leon.slice_ms", "ms", "sim_mips", "explore"},
	{"leon.slices_per_run", "count", "sim_mips", "explore"},
	{"cpu.instructions_per_op", "count", "sim_cycles_per_op", "all"},
	{"cpu.cycles_per_op", "cycles", "sim_cycles_per_op", "all"},
	{"cpu.cpi", "cycles/inst", "sim_cycles_per_op", "all"},
	{"cache.dcache_miss_ratio", "ratio", "sim_cycles_per_op", "sweep, explore"},
	{"cache.icache_miss_ratio", "ratio", "sim_cycles_per_op", "sweep, explore"},
	{"mem.sdram_requests_per_op", "count", "sim_cycles_per_op", "sweep, explore"},
	{"ahbadapter.rmw_cycles_per_op", "cycles", "sim_cycles_per_op", "sweep, explore"},
	{"lcc.build_ms", "ms", "setup_s", "all"},
	{"tracing.overhead", "x", "(validates the traced numbers)", "all"},
}

// layerRow is one line of the per-layer table in the report.
type layerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
	On    string  `json:"on"`
}

// spanStat accumulates the spans of one name: how many, their total
// duration, and their self time (duration minus their children's).
type spanStat struct {
	n           int
	total, self time.Duration
}

// spanAgg aggregates spans by "source/name"; node spans are filed under
// "node" whether recorded in process or fetched from liquid-server, and
// reconfigure spans are split by their kind attribute.
type spanAgg map[string]*spanStat

func (a spanAgg) add(groups ...[]tracing.TraceData) {
	type ref struct {
		source string
		id     uint64
	}
	for _, g := range groups {
		for _, td := range g {
			children := map[ref]time.Duration{}
			for _, sp := range td.Spans {
				if sp.Parent != 0 {
					children[ref{sp.Source, sp.Parent}] += sp.Dur
				}
			}
			for _, sp := range td.Spans {
				src := sp.Source
				if src == "server" {
					src = "node"
				}
				key := src + "/" + sp.Name
				if sp.Name == "reconfigure" && src == "node" {
					for _, at := range sp.Attrs {
						if at.Key == "kind" {
							key += ":" + at.Value
						}
					}
				}
				st := a[key]
				if st == nil {
					st = &spanStat{}
					a[key] = st
				}
				st.n++
				st.total += sp.Dur
				st.self += sp.Dur - children[ref{sp.Source, sp.ID}]
			}
		}
	}
}

// count, total, self and meanMS read an aggregate; absent names read 0.
func (a spanAgg) count(key string) int {
	if st := a[key]; st != nil {
		return st.n
	}
	return 0
}

func (a spanAgg) total(key string) time.Duration {
	if st := a[key]; st != nil {
		return st.total
	}
	return 0
}

func (a spanAgg) self(key string) time.Duration {
	if st := a[key]; st != nil {
		return st.self
	}
	return 0
}

func (a spanAgg) meanMS(key string, self bool) float64 {
	st := a[key]
	if st == nil || st.n == 0 {
		return 0
	}
	d := st.total
	if self {
		d = st.self
	}
	return ms(d) / float64(st.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// exportOps bounds how many ops' spans are kept for the Chrome export;
// all ops feed the aggregates.
const exportOps = 100

// tracer records a traced window: the benchmark's own spans around each
// public call ("bench"), the client library's spans ("client"), and the
// node's spans ("node" in process, or fetched from liquid-server per op).
type tracer struct {
	bench, client, node *tracing.Collector

	mu   sync.Mutex
	agg  spanAgg
	keep [][]tracing.TraceData
	kept int
}

func newTracer() *tracer {
	return &tracer{
		bench:  tracing.New("bench"),
		client: tracing.New("client"),
		node:   tracing.New("node"),
		agg:    spanAgg{},
	}
}

// begin opens an op's trace and returns its id and root span; with c set
// the client's exchanges (and so the node's spans) join the trace. A nil
// tracer returns a disabled span.
func (t *tracer) begin(c *client.Client) (uint64, tracing.SpanHandle) {
	if t == nil {
		return 0, tracing.SpanHandle{}
	}
	id := t.client.NewTraceID()
	if c != nil {
		c.Tracer, c.TraceID = t.client, id
	}
	return id, t.bench.Trace(id).Start("op")
}

// finish closes the op's root span and folds the op's spans from every
// source into the aggregate, fetching the node's spans over the control
// channel when c is set. It runs outside the timed op.
func (t *tracer) finish(id uint64, root tracing.SpanHandle, c *client.Client) error {
	if t == nil {
		return nil
	}
	root.End()
	groups := [][]tracing.TraceData{t.bench.TakeTrace(id), t.client.TakeTrace(id), t.node.TakeTrace(id)}
	if c != nil {
		c.TraceID = 0 // the fetch itself joins no trace
		srv, err := c.Traces(id)
		if err != nil {
			return fmt.Errorf("fetch node spans: %w", err)
		}
		groups = append(groups, srv)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.agg.add(groups...)
	if t.kept < exportOps {
		t.keep = append(t.keep, groups...)
		t.kept++
	}
	return nil
}

// export writes the kept spans as Chrome trace JSON after checking that
// tracing.ValidateChrome accepts them.
func (t *tracer) export(o options) (string, int, error) {
	data, err := tracing.ChromeJSON(t.keep...)
	if err != nil {
		return "", 0, err
	}
	n, err := tracing.ValidateChrome(data)
	if err != nil {
		return "", 0, err
	}
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return path, n, os.WriteFile(path, data, 0o644)
}

// counterDeltas are public counters read before and after the untraced
// part of a traced run.
type counterDeltas struct {
	clientRequests, clientRetries float64
	datagrams, bytes              float64
	handledCount, handledSum      float64
	drops                         float64
	fpxCommands                   float64
	chunks, chunksApplied         float64
	cacheHits, cacheMisses        float64
	synthRuns, coalesced          float64
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	untraced, traced *window
	agg              spanAgg
	counters         counterDeltas
	// runKey names the span that times a run: the node's "run" span, or
	// the benchmark's span around System.Run in process.
	runKey string
	builds []time.Duration
	inproc float64 // leon.host_ns_per_inst of the kernel run in process
}

// layers computes every per-layer metric of layerTable.
func layers(in layerInputs) (map[string]metric, []layerRow) {
	ops := float64(len(in.traced.good()))
	uops := float64(len(in.untraced.good()))
	perOp := func(key string) float64 { return ratio(ms(in.agg.total(key)), ops) }
	pt := in.traced.wholePasses()
	var tracedInsts uint64
	for _, o := range in.traced.good() {
		tracedInsts += o.insts
	}
	c := in.counters
	partial, full := in.agg.count("node/reconfigure:partial"), in.agg.count("node/reconfigure:full")
	var build time.Duration
	for _, b := range in.builds {
		build += b
	}
	v := map[string]float64{
		"client.load_ms":               perOp("bench/call:LoadProgram"),
		"client.start_ms":              perOp("bench/call:StartAsync"),
		"client.wait_ms":               perOp("bench/call:WaitResult"),
		"client.read_ms":               perOp("bench/call:ReadMemory"),
		"client.reconfigure_ms":        perOp("bench/call:Reconfigure"),
		"client.exchanges_per_op":      ratio(c.clientRequests, uops),
		"client.retries_per_op":        ratio(c.clientRetries, uops),
		"netproto.datagrams_per_op":    ratio(c.datagrams, uops),
		"netproto.bytes_per_op":        ratio(c.bytes, uops),
		"server.queue_ms":              in.agg.meanMS("node/queue", true),
		"server.park_ms":               ratio(ms(in.agg.self("node/park")), ops),
		"server.handle_ms":             1000 * ratio(c.handledSum, c.handledCount),
		"server.drops_per_op":          ratio(c.drops, uops),
		"fpx.commands_per_op":          ratio(c.fpxCommands, uops),
		"fpx.chunk_apply_ratio":        ratio(c.chunksApplied, c.chunks),
		"core.run_ms":                  in.agg.meanMS(in.runKey, false),
		"core.swap_partial_ms":         in.agg.meanMS("node/reconfigure:partial", false),
		"core.swap_full_ms":            in.agg.meanMS("node/reconfigure:full", false),
		"core.partial_swap_ratio":      ratio(float64(partial), float64(partial+full)),
		"reconfig.cache_hit_ratio":     ratio(c.cacheHits, c.cacheHits+c.cacheMisses),
		"reconfig.synth_runs":          c.synthRuns,
		"reconfig.coalesced":           c.coalesced,
		"leon.host_ns_per_inst":        ratio(float64(in.agg.total(in.runKey)), float64(tracedInsts)),
		"leon.host_ns_per_inst_inproc": in.inproc,
		"leon.slice_ms":                in.agg.meanMS("node/slice", false),
		"leon.slices_per_run":          ratio(float64(in.agg.count("node/slice")), float64(in.agg.count(in.runKey))),
		"cpu.instructions_per_op":      ratio(float64(pt.insts), float64(pt.ops)),
		"cpu.cycles_per_op":            ratio(float64(pt.cycles), float64(pt.ops)),
		"cpu.cpi":                      ratio(float64(pt.cycles), float64(pt.insts)),
		"cache.dcache_miss_ratio":      ratio(float64(pt.exact.dMisses), float64(pt.exact.dAccesses)),
		"cache.icache_miss_ratio":      ratio(float64(pt.exact.iMisses), float64(pt.exact.iAccesses)),
		"mem.sdram_requests_per_op":    ratio(float64(pt.exact.sdramRequests), float64(pt.exactOps)),
		"ahbadapter.rmw_cycles_per_op": ratio(float64(pt.exact.rmwCycles), float64(pt.exactOps)),
		"lcc.build_ms":                 ratio(ms(build), float64(len(in.builds))),
		"tracing.overhead":             ratio(in.untraced.opsPerSec()*in.untraced.scale(), in.traced.busyOpsPerSec()*in.traced.scale()),
	}
	out := map[string]metric{}
	var rows []layerRow
	for _, d := range layerTable {
		out[d.name] = metric{v[d.name], d.unit}
		rows = append(rows, layerRow{d.name, v[d.name], d.unit, d.moves, d.on})
	}
	return out, rows
}
