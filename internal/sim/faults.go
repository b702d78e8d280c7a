package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// LinkParams are the seedable fault characteristics of one directed
// link. Probabilities are in [0,1]; Latency/Jitter are delays applied
// to every delivered datagram (virtual time on the fabric, real time
// on the Relay).
type LinkParams struct {
	Drop    float64
	Dup     float64
	Reorder float64
	// Truncate cuts the datagram to a random prefix, possibly shorter
	// than the control header, exercising every parser's truncation
	// path.
	Truncate float64
	Latency  time.Duration
	Jitter   time.Duration
	// DupDelay is extra latency added to the duplicated copy of a
	// datagram, making the duplicate arrive *late* — after the original
	// exchange has long completed. Late duplicates are exactly what the
	// server's dedup window exists for: a stale replayed request must be
	// re-acked from the window, never re-executed.
	DupDelay time.Duration
	// Rules pin faults to exact datagrams (see ParseScript). A matching
	// rule decides its datagram instead of the random rates. Each link
	// keeps only the rules of its own direction and counts their
	// occurrences itself.
	Rules []Rule
	// Tracer, when set, receives a zero-length "fault:<event>" span in
	// the trace of every v4 datagram the link drops, duplicates,
	// truncates, holds back or delays, with the link's direction and
	// the datagram's command as attributes.
	Tracer *tracing.Collector
}

// Validate rejects rates outside [0,1] and negative delays.
func (p LinkParams) Validate() error {
	for _, v := range []struct {
		name string
		p    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"reorder", p.Reorder}, {"truncate", p.Truncate}} {
		if v.p < 0 || v.p > 1 {
			return fmt.Errorf("sim: %s rate %v outside [0,1]", v.name, v.p)
		}
	}
	if p.Latency < 0 || p.Jitter < 0 || p.DupDelay < 0 {
		return fmt.Errorf("sim: negative link delay")
	}
	return nil
}

// LinkStats counts what a directed link actually did to traffic.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Duped     uint64
	Reordered uint64
}

// Rule pins one fault to exact datagrams: on the client→server link
// (Up) or the server→client link, the Nth datagram carrying control
// command Cmd (a netproto.CommandName label such as "load" or
// "result"; Nth 0 means every one, From the Nth and every later one)
// suffers Action.
type Rule struct {
	Up     bool
	Cmd    string
	Nth    int
	From   bool
	Action string // drop, dup, reorder, trunc or delay
	Arg    int64  // trunc: bytes kept; delay: nanoseconds
}

// ParseScript parses comma-separated rules of the form
//
//	dir:cmd[@n[+]]=action[:arg]
//
// where dir is up (client→server) or down (server→client), cmd is a
// control command label ("status", "load", "start", "readmem",
// "writemem", "reconfigure", "getconfig", "trace", "stats", "result",
// "traces", "wait", "reconfigstatus", "waitreconfig"), @n selects the
// nth matching datagram on the link (append + for the nth onward; omit
// for every one), and action is drop | dup | reorder | trunc:BYTES |
// delay:DURATION.
//
// Examples:
//
//	up:load@3=drop            drop the 3rd load chunk the client sends
//	down:start=dup            duplicate every start ack
//	up:load@4+=drop           black-hole the load from chunk 4 onward
//	down:result@1=delay:50ms  delay the first result response
func ParseScript(s string) ([]Rule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(s, ",") {
		r, err := parseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("sim: rule %q: %w", part, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	lhs, rhs, ok := strings.Cut(s, "=")
	if !ok {
		return r, fmt.Errorf("missing '='")
	}
	dir, cmd, ok := strings.Cut(lhs, ":")
	if !ok {
		return r, fmt.Errorf("missing direction")
	}
	switch dir {
	case "up":
		r.Up = true
	case "down":
	default:
		return r, fmt.Errorf("direction %q (want up|down)", dir)
	}
	if c, nth, ok := strings.Cut(cmd, "@"); ok {
		cmd = c
		nth, r.From = strings.CutSuffix(nth, "+")
		n, err := strconv.Atoi(nth)
		if err != nil || n < 1 {
			return r, fmt.Errorf("bad occurrence %q", nth)
		}
		r.Nth = n
	}
	if cmd == "" {
		return r, fmt.Errorf("empty command")
	}
	r.Cmd = cmd

	act, arg, _ := strings.Cut(rhs, ":")
	r.Action = act
	switch act {
	case "drop", "dup", "reorder":
	case "trunc":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return r, fmt.Errorf("trunc wants a byte count")
		}
		r.Arg = int64(n)
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return r, fmt.Errorf("delay wants a duration")
		}
		r.Arg = int64(d)
	default:
		return r, fmt.Errorf("action %q (want drop|dup|reorder|trunc:N|delay:D)", act)
	}
	return r, nil
}

// link is one directed link's fault engine: the only place a fault is
// decided. The fabric keeps one per address pair and the Relay one per
// client and direction; both call decide under their own lock.
type link struct {
	params LinkParams
	up     bool // client→server: selects the link's rules
	rng    *rand.Rand
	seen   []int    // occurrences of each rule's command on this link
	held   [][]byte // datagrams held back by a reorder decision
	stats  LinkStats
	// injected counts faults by "dir_event" (the Relay's counter; nil
	// on the fabric).
	injected *metrics.CounterVec
}

// newLink seeds a link's fault RNG from the fabric or relay seed and
// the link's name, so that no link's schedule depends on another's
// traffic.
func newLink(seed int64, name string, up bool, p LinkParams) *link {
	h := fnv.New64a()
	h.Write([]byte(name))
	l := &link{up: up, rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
	l.set(p)
	return l
}

// set replaces the link's parameters and restarts its rule counts.
func (l *link) set(p LinkParams) {
	l.params = p
	l.seen = make([]int, len(p.Rules))
}

func (l *link) dir() string {
	if l.up {
		return "up"
	}
	return "down"
}

// delivery is one datagram a link lets through and how long it
// travels.
type delivery struct {
	payload []byte
	after   time.Duration
}

// decide runs one datagram through the link's faults and returns what
// to deliver, in order: the datagram itself, then every datagram held
// back before it, then its duplicate. It copies payload. A link with
// neither rules nor a truncate rate draws drop, dup, reorder and jitter
// in that order, the schedule TestFaultScheduleGolden pins.
func (l *link) decide(payload []byte) []delivery {
	p := append([]byte(nil), payload...)
	lp := &l.params
	l.stats.Sent++

	var drop, dup, hold bool
	keep, extra := len(p), time.Duration(0)
	if r := l.rule(p); r != nil {
		switch r.Action {
		case "drop":
			drop = true
		case "dup":
			dup = true
		case "reorder":
			hold = true
		case "trunc":
			keep = min(int(r.Arg), len(p))
		case "delay":
			extra = time.Duration(r.Arg)
		}
	} else if lp.Drop > 0 && l.rng.Float64() < lp.Drop {
		drop = true
	} else {
		if lp.Truncate > 0 && len(p) > 0 && l.rng.Float64() < lp.Truncate {
			keep = l.rng.Intn(len(p))
		}
		dup = lp.Dup > 0 && l.rng.Float64() < lp.Dup
		hold = lp.Reorder > 0 && l.rng.Float64() < lp.Reorder
	}

	if drop {
		l.stats.Dropped++
		l.fault("drop", p)
		return nil
	}
	if keep < len(p) {
		l.fault("truncate", p)
		p = p[:keep]
	}
	if hold {
		// It rides behind the next datagram that passes; a duplicate
		// drawn for it is lost with the hold, so no dup is counted.
		l.stats.Reordered++
		l.fault("reorder", p)
		l.held = append(l.held, p)
		return nil
	}
	if dup {
		l.stats.Duped++
		l.fault("dup", p)
	}
	if extra > 0 {
		l.fault("delay", p)
	}
	delay := lp.Latency + extra
	if lp.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(lp.Jitter)))
	}
	out := make([]delivery, 0, len(l.held)+2)
	out = append(out, delivery{p, delay})
	for _, h := range l.held {
		out = append(out, delivery{h, delay})
	}
	l.held = nil
	if dup {
		out = append(out, delivery{p, delay + lp.DupDelay})
	}
	return out
}

// rule returns the first of the link's rules that p triggers, counting
// p against every rule of the link's direction for p's command.
// Datagrams that are not Liquid packets trigger none.
func (l *link) rule(p []byte) *Rule {
	if len(l.params.Rules) == 0 {
		return nil
	}
	pkt, err := netproto.ParsePacket(p)
	if err != nil {
		return nil
	}
	cmd := netproto.CommandName(pkt.Command)
	var hit *Rule
	for i := range l.params.Rules {
		r := &l.params.Rules[i]
		if r.Up != l.up || r.Cmd != cmd {
			continue
		}
		l.seen[i]++
		n := l.seen[i]
		if hit == nil && (r.Nth == 0 || n == r.Nth || r.From && n > r.Nth) {
			hit = r
		}
	}
	return hit
}

// fault counts one decided fault and annotates it into the trace p
// names, if the link has a tracer and p is a traced v4 packet.
func (l *link) fault(event string, p []byte) {
	l.injected.With(l.dir() + "_" + event).Inc()
	if l.params.Tracer == nil {
		return
	}
	pkt, err := netproto.ParsePacket(p)
	if err != nil || pkt.TraceID == 0 {
		return
	}
	l.params.Tracer.Trace(pkt.TraceID).Event("fault:"+event,
		tracing.A("dir", l.dir()),
		tracing.A("cmd", netproto.CommandName(pkt.Command)))
}
