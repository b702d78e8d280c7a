// Package tracing is the platform's request-scoped tracing layer: the
// observability step past counters (metrics) and logs (eventlog) that
// reconstructs WHERE one §2.6 exchange spent its time — client backoff,
// server queue, board actor slice, core run, reconfiguration-cache
// lookup — as a single tree of spans sharing one 64-bit trace id that
// rides the v4 control header across process boundaries.
//
// The design goals, in order:
//
//   - zero cost when disabled: every handle type (Ctx, SpanHandle) is a
//     plain value whose methods no-op on the zero value, so
//     instrumented hot paths pay one nil check and no allocations when
//     no Collector is attached;
//   - lock-cheap when enabled: spans are recorded into a bounded
//     per-trace buffer behind that trace's own mutex; the collector's
//     map lock is taken only to look a trace up or retire it, and
//     retiring one at the active cap is amortized O(1) — it never walks
//     the other traces or their mutexes;
//   - bounded everywhere: spans per trace, active traces, and completed
//     traces are all capped, with drops counted rather than silently
//     swallowed — a runaway run can never eat the heap.
//
// A trace's life cycle: spans accumulate while the trace is active;
// the trace completes when explicitly finished (Finish — whoever mints
// an id for one exchange finishes it when the exchange replies), when
// fetched by id (TakeTrace — the client pulling "its" trace), when the
// active cap retires it, or lazily when it has been idle longer than
// HarvestIdle at the next export. Completed traces sit in a fixed-size
// ring — the flight recorder's memory. A span that ends after its trace
// completed is counted in SpansDropped, never silently lost.
package tracing

import (
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the collector bounds.
const (
	// DefMaxSpans bounds one trace's span buffer. A long run records
	// one span per actor slice, so the cap is what keeps a
	// billion-cycle run from unbounded growth; extra spans are dropped
	// and counted.
	DefMaxSpans = 512
	// DefMaxActive bounds concurrently active traces; creating one
	// past the cap first retires the active trace that has gone
	// longest without a span (a second-chance scan, amortized O(1)).
	DefMaxActive = 128
	// DefMaxDone is the completed-trace ring size — the flight
	// recorder's "last N exchanges".
	DefMaxDone = 64
	// DefHarvestIdle is how long a trace may sit with no new spans
	// before a lazy harvest (export, flight dump) treats it as
	// complete. Multi-exchange traces (one liquidctl invocation) stay
	// active as long as requests keep arriving.
	DefHarvestIdle = 250 * time.Millisecond
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A is shorthand for building an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one completed, recorded operation within a trace.
type Span struct {
	Name   string        `json:"name"`
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 = root-level
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	// Source labels which component recorded the span ("client",
	// "server", "chaos"); merged exports keep them apart as Chrome
	// processes.
	Source string `json:"source,omitempty"`
}

// TraceData is one completed trace: the bounded span buffer plus how
// many spans the bound dropped. Done is when its recording ended: the
// end of its last span (the completion time if none had ended).
type TraceData struct {
	ID      uint64    `json:"id"`
	Spans   []Span    `json:"spans"`
	Dropped uint64    `json:"dropped,omitempty"`
	Done    time.Time `json:"done"`
}

// inlineSpans is how many spans a trace holds before its buffer
// leaves the traceBuf allocation: most exchanges record two (queue and
// handle), a held wait three (plus park).
const inlineSpans = 2

// traceBuf is one active trace's recording state.
type traceBuf struct {
	mu      sync.Mutex
	id      uint64
	spans   []Span // starts as inline[:0]
	inline  [inlineSpans]Span
	dropped uint64
	last    time.Time // most recent span end (zero until the first)
	closed  bool      // completed: spans ending now count as dropped

	// touched is set at creation and by every recorded span, and
	// cleared when the retirement scan gives the trace a second chance.
	touched atomic.Bool
	// prev and next link the collector's retirement queue (guarded by
	// the collector's mu).
	prev, next *traceBuf
}

// record appends one completed span ending at end, enforcing the
// buffer bound.
func (tb *traceBuf) record(c *Collector, sp Span, end time.Time) {
	tb.mu.Lock()
	switch {
	case tb.closed:
		c.drops.Add(1)
	case len(tb.spans) < c.maxSpans():
		tb.spans = append(tb.spans, sp)
	default:
		tb.dropped++
	}
	tb.last = end
	tb.mu.Unlock()
	tb.touched.Store(true)
}

// Collector owns one component's traces. All methods are safe for
// concurrent use; a nil *Collector is a valid disabled collector
// (every operation no-ops).
type Collector struct {
	source string

	// MaxSpans, MaxActive, MaxDone, HarvestIdle override the Def*
	// bounds when set before use (they are read without locks, so set
	// them at construction time only).
	MaxSpans    int
	MaxActive   int
	MaxDone     int
	HarvestIdle time.Duration

	ids atomic.Uint64 // span-id source; trace ids mix in idSalt

	mu     sync.Mutex
	active map[uint64]*traceBuf
	// head and tail are the retirement queue over the active traces,
	// oldest queued first.
	head, tail *traceBuf
	done       []TraceData // ring, oldest overwritten
	next       int         // ring write index
	wrap       bool        // ring has wrapped (len == MaxDone)

	drops   atomic.Uint64 // spans dropped by full or completed traces (aggregate)
	retired atomic.Uint64 // traces the active cap force-completed

	epoch atomic.Pointer[time.Time] // span clock anchor (see now)
}

// reanchorEvery bounds how long span timestamps run on the monotonic
// clock alone before re-reading the wall clock.
const reanchorEvery = time.Second

// now is the span clock: an anchor plus the monotonic time elapsed
// since it. time.Since reads one clock where time.Now reads two (wall
// and monotonic), and span starts and ends are the tracing hot path.
// Re-anchoring every reanchorEvery keeps a stepped or slewed wall
// clock visible within that long, so merged client and server
// timelines still line up.
func (c *Collector) now() time.Time {
	if e := c.epoch.Load(); e != nil {
		if d := time.Since(*e); d < reanchorEvery {
			return e.Add(d)
		}
	}
	t := time.Now()
	c.epoch.Store(&t)
	return t
}

// idSalt makes trace ids from different processes collide only by
// genuine bad luck: the boot time's nanoseconds fold into the top bits.
var idSalt = uint64(time.Now().UnixNano())<<16 | 0x1

// New returns an enabled collector whose spans carry the given source
// label ("client", "server", "chaos").
func New(source string) *Collector {
	return &Collector{
		source: source,
		active: make(map[uint64]*traceBuf),
	}
}

// Source returns the component label stamped on recorded spans.
func (c *Collector) Source() string {
	if c == nil {
		return ""
	}
	return c.source
}

func (c *Collector) maxSpans() int {
	if c.MaxSpans > 0 {
		return c.MaxSpans
	}
	return DefMaxSpans
}

func (c *Collector) maxActive() int {
	if c.MaxActive > 0 {
		return c.MaxActive
	}
	return DefMaxActive
}

func (c *Collector) maxDone() int {
	if c.MaxDone > 0 {
		return c.MaxDone
	}
	return DefMaxDone
}

func (c *Collector) harvestIdle() time.Duration {
	if c.HarvestIdle > 0 {
		return c.HarvestIdle
	}
	return DefHarvestIdle
}

// NewTraceID mints a fresh 64-bit trace id, unique within this process
// and salted so ids from different processes (client vs server) do not
// trivially collide. Never returns 0 (0 means "no trace" on the wire).
func (c *Collector) NewTraceID() uint64 {
	if c == nil {
		return 0
	}
	id := idSalt + c.ids.Add(1)*2654435761 // Knuth multiplicative spread
	if id == 0 {
		id = 1
	}
	return id
}

// nextSpanID mints a span id (unique within the collector).
func (c *Collector) nextSpanID() uint64 { return c.ids.Add(1) }

// SpansDropped returns how many spans were dropped since the collector
// was built: by full per-trace buffers, or because they ended after
// their trace completed.
func (c *Collector) SpansDropped() uint64 {
	if c == nil {
		return 0
	}
	return c.drops.Load()
}

// Retired returns how many active traces the MaxActive cap has
// force-completed since the collector was built.
func (c *Collector) Retired() uint64 {
	if c == nil {
		return 0
	}
	return c.retired.Load()
}

// Trace returns a recording context for the trace with the given id,
// creating the active trace on first use. id 0 (or a nil collector)
// returns a disabled context.
func (c *Collector) Trace(id uint64) Ctx {
	if c == nil || id == 0 {
		return Ctx{}
	}
	c.mu.Lock()
	tb, ok := c.active[id]
	if !ok {
		if len(c.active) >= c.maxActive() {
			c.retireStalestLocked()
		}
		tb = &traceBuf{id: id}
		tb.spans = tb.inline[:0]
		tb.touched.Store(true)
		c.active[id] = tb
		c.pushLocked(tb)
	}
	c.mu.Unlock()
	return Ctx{c: c, tb: tb, trace: id}
}

// retireStalestLocked force-completes the active trace that has gone
// longest without a span: a second-chance scan of the retirement
// queue. A trace touched since it was queued goes to the back with its
// mark cleared; the first untouched one is retired. Every requeue
// consumes a mark some recorded span paid for, so retirement is
// amortized O(1); the scan is capped at one pass, after which the head
// is retired regardless. Caller holds c.mu.
func (c *Collector) retireStalestLocked() {
	for chances := len(c.active); c.head != nil; chances-- {
		tb := c.head
		if chances > 0 && tb.touched.Swap(false) {
			c.unlinkLocked(tb)
			c.pushLocked(tb)
			continue
		}
		c.retired.Add(1)
		c.completeLocked(tb)
		return
	}
}

// pushLocked appends tb to the back of the retirement queue. Caller
// holds c.mu.
func (c *Collector) pushLocked(tb *traceBuf) {
	tb.prev, tb.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = tb
	} else {
		c.head = tb
	}
	c.tail = tb
}

// unlinkLocked removes tb from the retirement queue. Caller holds c.mu.
func (c *Collector) unlinkLocked(tb *traceBuf) {
	if tb.prev != nil {
		tb.prev.next = tb.next
	} else {
		c.head = tb.next
	}
	if tb.next != nil {
		tb.next.prev = tb.prev
	} else {
		c.tail = tb.prev
	}
	tb.prev, tb.next = nil, nil
}

// completeLocked moves one active trace into the done ring. The span
// buffer moves with it — no copy — and the trace is closed, so a span
// ending later is counted as dropped instead of landing in a buffer
// nobody reads. Caller holds c.mu.
func (c *Collector) completeLocked(tb *traceBuf) {
	delete(c.active, tb.id)
	c.unlinkLocked(tb)
	tb.mu.Lock()
	td := TraceData{ID: tb.id, Spans: tb.spans, Dropped: tb.dropped, Done: tb.last}
	tb.spans, tb.closed = nil, true
	tb.mu.Unlock()
	if td.Done.IsZero() {
		td.Done = time.Now()
	}
	c.drops.Add(td.Dropped)
	if len(c.done) < c.maxDone() {
		c.done = append(c.done, td)
		c.next = len(c.done) % c.maxDone()
		c.wrap = len(c.done) == c.maxDone()
		return
	}
	c.done[c.next] = td
	c.next = (c.next + 1) % len(c.done)
}

// Finish completes the trace with the given id, moving it into the
// done ring. A no-op when the id is not active.
func (c *Collector) Finish(id uint64) {
	if c == nil || id == 0 {
		return
	}
	c.mu.Lock()
	if tb, ok := c.active[id]; ok {
		c.completeLocked(tb)
	}
	c.mu.Unlock()
}

// harvest completes every active trace idle longer than the harvest
// threshold — the lazy completion exports rely on. A trace none of
// whose spans has ended yet is not idle: its owner finishes it, or the
// active cap retires it.
func (c *Collector) harvest() {
	if c == nil {
		return
	}
	cutoff := time.Now().Add(-c.harvestIdle())
	c.mu.Lock()
	var stale []*traceBuf
	for _, tb := range c.active {
		tb.mu.Lock()
		idle := !tb.last.IsZero() && tb.last.Before(cutoff)
		tb.mu.Unlock()
		if idle {
			stale = append(stale, tb)
		}
	}
	for _, tb := range stale {
		c.completeLocked(tb)
	}
	c.mu.Unlock()
}

// Completed harvests idle traces and returns the completed-trace ring,
// oldest first.
func (c *Collector) Completed() []TraceData {
	if c == nil {
		return nil
	}
	c.harvest()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TraceData, 0, len(c.done))
	if c.wrap {
		out = append(out, c.done[c.next:]...)
		return append(out, c.done[:c.next]...)
	}
	return append(out, c.done...)
}

// TakeTrace force-completes the trace with the given id and returns
// every completed TraceData carrying that id (a trace interrupted by a
// flight dump can appear as more than one ring entry), newest last.
// Taken entries leave the ring — fetch once and keep the result. This
// is the fetch-by-id path the client uses to pull "its" trace.
func (c *Collector) TakeTrace(id uint64) []TraceData {
	if c == nil || id == 0 {
		return nil
	}
	c.Finish(id)
	c.harvest()
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []TraceData
	if c.wrap {
		all = append(all, c.done[c.next:]...)
		all = append(all, c.done[:c.next]...)
	} else {
		all = append(all, c.done...)
	}
	var out []TraceData
	keep := all[:0]
	for _, td := range all {
		if td.ID == id {
			out = append(out, td)
		} else {
			keep = append(keep, td)
		}
	}
	if len(out) > 0 {
		c.done = keep
		c.next = len(keep) % c.maxDone()
		c.wrap = len(keep) == c.maxDone()
	}
	return out
}

// ActiveCount returns how many traces are currently recording.
func (c *Collector) ActiveCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

// Ctx is a recording position within one trace: which collector, which
// trace, and which span new children nest under. The zero value is a
// valid disabled context.
type Ctx struct {
	c      *Collector
	tb     *traceBuf
	trace  uint64
	parent uint64
}

// On reports whether the context records anywhere.
func (x Ctx) On() bool { return x.c != nil }

// TraceID returns the trace id (0 when disabled).
func (x Ctx) TraceID() uint64 { return x.trace }

// Start opens a span named name as a child of the context's current
// span. The returned handle must be closed with End (or EndAttrs); on
// a disabled context both the handle and End are no-ops.
func (x Ctx) Start(name string) SpanHandle {
	if x.c == nil {
		return SpanHandle{}
	}
	return SpanHandle{
		x:     x,
		id:    x.c.nextSpanID(),
		name:  name,
		start: x.c.now(),
	}
}

// SpanHandle is one in-flight span. It is a value: copy it freely,
// close it exactly once.
type SpanHandle struct {
	x     Ctx
	id    uint64
	name  string
	start time.Time

	// attrs accumulated before End via WithAttr (small, usually nil).
	attrs []Attr
}

// On reports whether the span records anywhere.
func (s SpanHandle) On() bool { return s.x.c != nil }

// Ctx returns a child context: spans started from it nest under this
// span.
func (s SpanHandle) Ctx() Ctx {
	if s.x.c == nil {
		return Ctx{}
	}
	x := s.x
	x.parent = s.id
	return x
}

// WithAttr returns the handle with an annotation attached; the attr is
// recorded when the span ends. No-op (and alloc-free) when disabled.
func (s SpanHandle) WithAttr(key, value string) SpanHandle {
	if s.x.c == nil {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// End closes the span, recording it into the trace buffer.
func (s SpanHandle) End() {
	if s.x.c == nil {
		return
	}
	s.endAt(s.x.c.now(), nil)
}

// EndAttrs closes the span with extra annotations. Call only under an
// On() guard on alloc-sensitive paths: building the variadic slice
// costs an allocation even when tracing is off. When the handle holds
// no WithAttr annotations the span keeps attrs itself, uncopied.
func (s SpanHandle) EndAttrs(attrs ...Attr) {
	if s.x.c == nil {
		return
	}
	s.endAt(s.x.c.now(), attrs)
}

func (s SpanHandle) endAt(end time.Time, extra []Attr) {
	attrs := s.attrs
	switch {
	case len(attrs) == 0:
		attrs = extra
	case len(extra) > 0:
		attrs = append(attrs, extra...)
	}
	s.x.tb.record(s.x.c, Span{
		Name:   s.name,
		Trace:  s.x.trace,
		ID:     s.id,
		Parent: s.x.parent,
		Start:  s.start,
		Dur:    end.Sub(s.start),
		Attrs:  attrs,
		Source: s.x.c.source,
	}, end)
}

// Event records an instantaneous (zero-duration) span — the shape the
// chaos layer uses for fault decisions.
func (x Ctx) Event(name string, attrs ...Attr) {
	if x.c == nil {
		return
	}
	at := x.c.now()
	x.tb.record(x.c, Span{
		Name:   name,
		Trace:  x.trace,
		ID:     x.c.nextSpanID(),
		Parent: x.parent,
		Start:  at,
		Attrs:  attrs,
		Source: x.c.source,
	}, at)
}
