// Package chaos is the platform's deterministic fault-injection net
// layer. The paper's control plane drives LEON boards over the open
// Internet via UDP (§2.6) — a transport that drops, duplicates,
// reorders, delays and truncates — and chaos reproduces exactly those
// faults on demand, from a pinned seed, so every transport-hardening
// claim in the client and server can be tested instead of trusted.
//
// Three entry points share one fault engine:
//
//   - Conn wraps any net.PacketConn in-process (unit tests);
//   - Proxy is a standalone UDP relay that sits between a real client
//     and a real server (integration tests, and the liquid-chaos
//     command for soaking a deployment);
//   - Script expresses surgical, non-random faults ("drop the 3rd
//     load chunk", "dup every start ack") that compose with the
//     random rates.
//
// Determinism: all random decisions come from one seeded
// math/rand.Rand per direction, drawn in packet-arrival order. With a
// fixed seed and a serial packet stream the injected fault sequence is
// bit-identical across runs; with concurrent clients the draw order
// follows arrival order, so the aggregate rates still hold and every
// injected fault is still counted in the metrics registry.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// Direction labels the two halves of a control-plane path.
type Direction uint8

// Directions: Up is client→server (requests), Down is server→client
// (responses).
const (
	Up Direction = iota
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Faults are the per-direction random fault rates, all probabilities
// in [0,1] evaluated independently per packet (drop first: a dropped
// packet cannot also be duplicated).
type Faults struct {
	// Drop discards the packet.
	Drop float64
	// Dup delivers the packet twice, back to back.
	Dup float64
	// Reorder holds the packet and releases it after the next packet
	// in the same direction passes — a one-packet swap.
	Reorder float64
	// Truncate cuts the packet to a random prefix (possibly shorter
	// than the control header), exercising every parser's
	// truncation path.
	Truncate float64
	// Delay holds the packet for a duration uniform in
	// [DelayMin, DelayMax] before delivering it out of band.
	Delay    float64
	DelayMin time.Duration
	DelayMax time.Duration
}

// Config assembles a chaos layer: a seed, per-direction random rates,
// an optional script of surgical rules, and an optional metrics
// registry receiving the injection counters.
type Config struct {
	Seed     int64
	Up, Down Faults
	Script   []*Rule
	Registry *metrics.Registry // nil → uncounted (nil-safe instruments)
	// Tracer, when set, annotates every injected fault into the
	// exchange trace named by the packet it hit: packets carrying a v4
	// trace id get a zero-length "fault:<event>" span (dir and cmd
	// attrs) in that trace, so a merged timeline shows exactly which
	// datagram the chaos layer dropped, duplicated, delayed, reordered
	// or truncated. Packets without a trace id are unannotated.
	Tracer *tracing.Collector
	// Clock schedules delayed-fault delivery (nil = real time); a
	// simulated fabric passes its virtual clock so injected delays
	// ride the virtual timeline.
	Clock sim.Clock
}

// delayed is a packet scheduled for out-of-band delivery.
type delayed struct {
	payload []byte
	after   time.Duration
}

// injector applies one direction's faults to a packet stream. All
// state (rng, script counters, the reorder hold slot) is behind one
// mutex, so decisions are drawn in arrival order.
type injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	f      Faults
	script []*Rule
	dir    Direction
	held   []byte // reorder hold slot (nil = empty)
	tracer *tracing.Collector

	packets  *metrics.Counter
	injected *metrics.CounterVec
}

// newInjector builds one direction's engine. Script rules are shared
// pointers: both directions see the same rule list, each rule matches
// only its own direction.
func newInjector(dir Direction, f Faults, script []*Rule, seed int64, reg *metrics.Registry) *injector {
	// Offset the two directions' seeds so up and down do not mirror
	// each other's decisions.
	seed = seed*2 + int64(dir)
	inj := &injector{
		rng:    rand.New(rand.NewSource(seed)),
		f:      f,
		script: script,
		dir:    dir,
	}
	inj.packets = reg.CounterVec("liquid_chaos_packets_total", "Packets entering the chaos layer, by direction.", "dir").With(dir.String())
	inj.injected = reg.CounterVec("liquid_chaos_injected_total", "Faults injected by the chaos layer, by dir_event.", "event")
	return inj
}

// count records one injected fault and, when the victim packet names a
// trace, annotates the fault into that trace. p is the payload as it
// looked when the decision was drawn (best effort: a packet already
// cut below the v4 header annotates nothing).
func (inj *injector) count(event string, p []byte) {
	inj.injected.With(inj.dir.String() + "_" + event).Inc()
	if inj.tracer == nil {
		return
	}
	pkt, err := netproto.ParsePacket(p)
	if err != nil || pkt.TraceID == 0 {
		return
	}
	inj.tracer.Trace(pkt.TraceID).Event("fault:"+event,
		tracing.A("dir", inj.dir.String()),
		tracing.A("cmd", netproto.CommandName(pkt.Command)))
}

// apply runs the fault decision for one packet and returns the
// payloads to deliver immediately (in order) plus any delayed
// deliveries. The input is copied: callers may reuse their buffer.
// Zero immediate payloads means the packet was dropped or held.
func (inj *injector) apply(payload []byte) (now [][]byte, later []delayed) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.packets.Inc()
	p := append([]byte(nil), payload...)

	// Scripted rules fire first and override the random rates.
	if rule := matchRule(inj.script, inj.dir, p); rule != nil {
		now, later = inj.applyAction(rule.Action, rule.Arg, p)
	} else {
		now, later = inj.applyRandom(p)
	}

	// A previously held (reordered) packet rides out right after the
	// first packet that passes.
	if len(now) > 0 && inj.held != nil {
		now = append(now, inj.held)
		inj.held = nil
	}
	return now, later
}

// applyRandom draws the independent per-packet fault decisions.
func (inj *injector) applyRandom(p []byte) ([][]byte, []delayed) {
	f := inj.f
	if f.Drop > 0 && inj.rng.Float64() < f.Drop {
		inj.count("drop", p)
		return nil, nil
	}
	if f.Truncate > 0 && inj.rng.Float64() < f.Truncate && len(p) > 0 {
		n := inj.rng.Intn(len(p))
		inj.count("truncate", p)
		p = p[:n]
	}
	if f.Reorder > 0 && inj.rng.Float64() < f.Reorder && inj.held == nil {
		inj.count("reorder", p)
		inj.held = p
		return nil, nil
	}
	if f.Delay > 0 && inj.rng.Float64() < f.Delay {
		inj.count("delay", p)
		return nil, []delayed{{payload: p, after: inj.delayDur()}}
	}
	if f.Dup > 0 && inj.rng.Float64() < f.Dup {
		inj.count("dup", p)
		return [][]byte{p, p}, nil
	}
	return [][]byte{p}, nil
}

// applyAction executes one scripted action on a packet.
func (inj *injector) applyAction(a Action, arg int64, p []byte) ([][]byte, []delayed) {
	switch a {
	case ActDrop:
		inj.count("drop", p)
		return nil, nil
	case ActDup:
		inj.count("dup", p)
		return [][]byte{p, p}, nil
	case ActReorder:
		if inj.held == nil {
			inj.count("reorder", p)
			inj.held = p
			return nil, nil
		}
		return [][]byte{p}, nil
	case ActTruncate:
		n := int(arg)
		if n > len(p) {
			n = len(p)
		}
		inj.count("truncate", p)
		return [][]byte{p[:n]}, nil
	case ActDelay:
		inj.count("delay", p)
		return nil, []delayed{{payload: p, after: time.Duration(arg)}}
	default:
		return [][]byte{p}, nil
	}
}

// delayDur draws a delay uniform in [DelayMin, DelayMax].
func (inj *injector) delayDur() time.Duration {
	lo, hi := inj.f.DelayMin, inj.f.DelayMax
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(inj.rng.Int63n(int64(hi-lo)))
}

// flush releases a held (reordered) packet, if any — called when the
// stream is closing so a swap at the tail is not silently lost.
func (inj *injector) flush() []byte {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	p := inj.held
	inj.held = nil
	return p
}

// matchRule finds the first rule matching this packet, advancing the
// occurrence counters of every rule whose direction and command match.
func matchRule(rules []*Rule, dir Direction, payload []byte) *Rule {
	if len(rules) == 0 {
		return nil
	}
	cmd, ok := payloadCommand(payload)
	if !ok {
		return nil
	}
	for _, r := range rules {
		if r.Dir != dir || r.Cmd != cmd {
			continue
		}
		r.seen++
		switch {
		case r.Nth == 0: // every occurrence
			return r
		case r.From && r.seen >= r.Nth: // nth onward
			return r
		case r.seen == r.Nth: // exactly the nth
			return r
		}
	}
	return nil
}

// payloadCommand extracts the control command label from a packet
// payload ("load", "start", ...; see netproto.CommandName). Non-Liquid
// payloads match no rule.
func payloadCommand(payload []byte) (string, bool) {
	pkt, err := netproto.ParsePacket(payload)
	if err != nil {
		return "", false
	}
	return netproto.CommandName(pkt.Command), true
}

// Validate rejects out-of-range fault rates early.
func (f Faults) Validate() error {
	for _, v := range []struct {
		name string
		p    float64
	}{{"drop", f.Drop}, {"dup", f.Dup}, {"reorder", f.Reorder}, {"truncate", f.Truncate}, {"delay", f.Delay}} {
		if v.p < 0 || v.p > 1 {
			return fmt.Errorf("chaos: %s rate %v outside [0,1]", v.name, v.p)
		}
	}
	if f.DelayMin < 0 || f.DelayMax < 0 {
		return fmt.Errorf("chaos: negative delay bounds")
	}
	return nil
}
