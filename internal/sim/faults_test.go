package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/metrics"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// pkt builds a marshalled control packet carrying cmd, so rules (which
// match on the command label) can see it.
func pkt(cmd uint8, body ...byte) []byte {
	return netproto.Packet{Command: cmd, Body: body}.Marshal()
}

// script parses s or fails the test.
func script(t *testing.T, s string) []Rule {
	t.Helper()
	rules, err := ParseScript(s)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// upLink is a client→server link at seed 1.
func upLink(p LinkParams) *link { return newLink(1, "up#0", true, p) }

// transcript runs n status packets through a fresh link and returns a
// compact record of what came out: the determinism fingerprint.
func transcript(seed int64, p LinkParams, n int) string {
	l := newLink(seed, "a>b", true, p)
	var out strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&out, "%d:", i)
		for _, d := range l.decide(pkt(netproto.CmdStatus, byte(i), byte(i>>8))) {
			fmt.Fprintf(&out, " %x@%v", d.payload, d.after)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

func TestLinkDeterministic(t *testing.T) {
	p := LinkParams{Drop: 0.2, Dup: 0.1, Reorder: 0.15, Truncate: 0.1,
		Latency: time.Millisecond, Jitter: 5 * time.Millisecond}
	a := transcript(42, p, 500)
	if a != transcript(42, p, 500) {
		t.Fatal("same seed produced different fault sequences")
	}
	if a == transcript(43, p, 500) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestDirectionsDoNotMirror(t *testing.T) {
	p := LinkParams{Drop: 0.5}
	up := newLink(7, "up#0", true, p)
	down := newLink(7, "down#0", false, p)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if (len(up.decide(pkt(netproto.CmdStatus))) == 0) == (len(down.decide(pkt(netproto.CmdStatus))) == 0) {
			same++
		}
	}
	if same == n {
		t.Fatalf("up and down links mirrored all %d decisions", n)
	}
}

func TestDropRateApproximate(t *testing.T) {
	l := upLink(LinkParams{Drop: 0.2})
	const n = 10000
	for i := 0; i < n; i++ {
		l.decide(pkt(netproto.CmdStatus))
	}
	if d := l.stats.Dropped; d < n/10 || d > 3*n/10 {
		t.Fatalf("drop rate 0.2 dropped %d/%d packets", d, n)
	}
}

func TestReorderSwapsAdjacent(t *testing.T) {
	// The held packet rides behind the next one that passes.
	l := upLink(LinkParams{Rules: script(t, "up:status@1=reorder")})
	p1, p2 := pkt(netproto.CmdStatus, 1), pkt(netproto.CmdStatus, 2)
	if out := l.decide(p1); len(out) != 0 {
		t.Fatalf("first packet should be held, got %d payloads", len(out))
	}
	out := l.decide(p2)
	if len(out) != 2 || !bytes.Equal(out[0].payload, p2) || !bytes.Equal(out[1].payload, p1) {
		t.Fatalf("expected swapped order [p2 p1], got %v", out)
	}
}

func TestDupDelivesTwice(t *testing.T) {
	l := upLink(LinkParams{Dup: 1, DupDelay: time.Millisecond})
	p := pkt(netproto.CmdStatus, 9)
	out := l.decide(p)
	if len(out) != 2 || !bytes.Equal(out[0].payload, p) || !bytes.Equal(out[1].payload, p) {
		t.Fatalf("dup=1 should deliver twice, got %v", out)
	}
	if out[0].after != 0 || out[1].after != time.Millisecond {
		t.Fatalf("copies travel %v and %v, want 0 and the 1ms DupDelay", out[0].after, out[1].after)
	}
}

// TestDupDrawnWithReorderNotCounted: a datagram drawn for both dup and
// reorder is held without its copy, so neither the link's Duped count,
// the relay's up_dup counter nor the packet's trace may show a dup. The
// next datagram, drawn for dup alone, delivers its copy and counts it.
func TestDupDrawnWithReorderNotCounted(t *testing.T) {
	col := tracing.New("chaos")
	injected := metrics.NewRegistry().CounterVec("injected", "", "event")
	l := upLink(LinkParams{Dup: 1, Reorder: 1, Tracer: col})
	l.injected = injected
	held := netproto.Packet{Command: netproto.CmdStatus, TraceID: 7}.Marshal()
	if out := l.decide(held); out != nil {
		t.Fatalf("dup=1 reorder=1 should hold the datagram, got %v", out)
	}
	if s := l.stats; s.Duped != 0 || s.Reordered != 1 {
		t.Fatalf("after the hold: stats %+v, want no dup and one reorder", s)
	}
	l.params.Reorder = 0
	next := netproto.Packet{Command: netproto.CmdStatus, TraceID: 8}.Marshal()
	out := l.decide(next)
	if len(out) != 3 || !bytes.Equal(out[0].payload, next) || !bytes.Equal(out[1].payload, held) ||
		!bytes.Equal(out[2].payload, next) {
		t.Fatalf("want the datagram, the held one and the datagram's copy, got %v", out)
	}
	if s := l.stats; s.Duped != 1 || s.Reordered != 1 {
		t.Fatalf("stats %+v, want one dup and one reorder", s)
	}
	if d, r := injected.With("up_dup").Value(), injected.With("up_reorder").Value(); d != 1 || r != 1 {
		t.Fatalf("injected up_dup %d, up_reorder %d; want 1 and 1", d, r)
	}
	for id, want := range map[uint64]string{7: "[fault:reorder]", 8: "[fault:dup]"} {
		var spans []string
		for _, td := range col.TakeTrace(id) {
			for _, sp := range td.Spans {
				spans = append(spans, sp.Name)
			}
		}
		if fmt.Sprint(spans) != want {
			t.Errorf("trace %d holds %v, want %s", id, spans, want)
		}
	}
}

func TestDecideCopiesInput(t *testing.T) {
	l := upLink(LinkParams{})
	buf := pkt(netproto.CmdStatus, 7)
	want := bytes.Clone(buf)
	out := l.decide(buf)
	for i := range buf {
		buf[i] = 0xEE // the caller reuses its buffer
	}
	if len(out) != 1 || !bytes.Equal(out[0].payload, want) {
		t.Fatal("link aliased the caller's buffer")
	}
}

func TestJitterBounds(t *testing.T) {
	l := upLink(LinkParams{Latency: 2 * time.Millisecond, Jitter: 6 * time.Millisecond})
	for i := 0; i < 200; i++ {
		out := l.decide(pkt(netproto.CmdStatus))
		if d := out[0].after; d < 2*time.Millisecond || d >= 8*time.Millisecond {
			t.Fatalf("delay %v outside [2ms,8ms)", d)
		}
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	for _, bad := range []LinkParams{{Drop: 1.5}, {Dup: -1}, {Truncate: 2}, {Latency: -time.Second}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
	if err := (LinkParams{Drop: 0.2, Dup: 1, Jitter: time.Millisecond}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestScriptedRuleOverridesRandom(t *testing.T) {
	// The random rate says drop everything; the rule for every start
	// wins for its command.
	l := upLink(LinkParams{Drop: 1, Rules: script(t, "up:start=dup")})
	for i := 0; i < 3; i++ {
		if out := l.decide(pkt(netproto.CmdStartLEON)); len(out) != 2 {
			t.Fatalf("start %d: scripted dup should override random drop, got %d payloads", i, len(out))
		}
	}
	if out := l.decide(pkt(netproto.CmdStatus)); len(out) != 0 {
		t.Fatal("unscripted command should still hit the random drop")
	}
}

// survivors sends n load packets through a link with rules s and
// returns the 1-based indices that came out.
func survivors(t *testing.T, s string, n int) string {
	t.Helper()
	l := upLink(LinkParams{Rules: script(t, s)})
	var got []int
	for i := 1; i <= n; i++ {
		if len(l.decide(pkt(netproto.CmdLoadProgram))) > 0 {
			got = append(got, i)
		}
	}
	return fmt.Sprint(got)
}

func TestScriptNthSemantics(t *testing.T) {
	if got := survivors(t, "up:load@3=drop", 5); got != "[1 2 4 5]" {
		t.Fatalf("@3 drop: survived %v, want [1 2 4 5]", got)
	}
}

func TestScriptFromSemantics(t *testing.T) {
	if got := survivors(t, "up:load@3+=drop", 6); got != "[1 2]" {
		t.Fatalf("@3+ drop: survived %v, want [1 2]", got)
	}
}

// TestScriptDirectionIsolated installs a down rule on both links of a
// fabric path: it must leave the client's request alone and drop the
// first reply, because only the link from the dialled endpoint is up.
func TestScriptDirectionIsolated(t *testing.T) {
	n := NewNetwork(NewVirtualClock(), 1)
	srv, _ := n.Listen("")
	cli, _ := n.Dial(srv.LocalAddr())
	p := LinkParams{Rules: script(t, "down:result@1=drop")}
	n.SetLink(cli.LocalAddr(), srv.LocalAddr(), p)
	n.SetLink(srv.LocalAddr(), cli.LocalAddr(), p)

	buf := make([]byte, 64)
	cli.Write(pkt(netproto.CmdResult))
	srv.SetReadDeadline(n.clk.Now())
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatalf("down rule fired on the up link: %v", err)
	}
	first, second := pkt(netproto.CmdResult|netproto.RespFlag, 1), pkt(netproto.CmdResult|netproto.RespFlag, 2)
	srv.WriteTo(first, cli.LocalAddr())
	srv.WriteTo(second, cli.LocalAddr())
	cli.SetReadDeadline(n.clk.Now())
	k, err := cli.Read(buf)
	if err != nil || !bytes.Equal(buf[:k], second) {
		t.Fatalf("read %x, %v; want the second reply (first scripted away)", buf[:k], err)
	}
}

func TestScriptTruncAndDelay(t *testing.T) {
	l := upLink(LinkParams{Latency: time.Millisecond,
		Rules: script(t, "up:writemem=trunc:3, up:readmem=delay:40ms")})
	out := l.decide(pkt(netproto.CmdWriteMemory, 1, 2, 3, 4))
	if len(out) != 1 || len(out[0].payload) != 3 {
		t.Fatalf("trunc:3 gave %v", out)
	}
	out = l.decide(pkt(netproto.CmdReadMemory))
	if len(out) != 1 || out[0].after != 41*time.Millisecond {
		t.Fatalf("delay:40ms over 1ms latency gave %v", out)
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"load=drop",          // missing direction
		"sideways:load=drop", // bad direction
		"up:=drop",           // empty command
		"up:load",            // missing '='
		"up:load=explode",    // unknown action
		"up:load@0=drop",     // occurrence < 1
		"up:load@x=drop",     // non-numeric occurrence
		"up:load=trunc:-1",   // negative byte count
		"up:load=trunc:zz",   // non-numeric byte count
		"up:load=delay:soon", // bad duration
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted", bad)
		}
	}
	if rules, err := ParseScript("  "); err != nil || rules != nil {
		t.Errorf("blank script: rules=%v err=%v", rules, err)
	}
	rules, err := ParseScript("up:load@3+=drop, down:start=dup")
	want := []Rule{{Up: true, Cmd: "load", Nth: 3, From: true, Action: "drop"}, {Cmd: "start", Action: "dup"}}
	if err != nil || fmt.Sprint(rules) != fmt.Sprint(want) {
		t.Fatalf("two-rule script: rules=%+v err=%v", rules, err)
	}
}

func TestNonLiquidPayloadBypassesScript(t *testing.T) {
	l := upLink(LinkParams{Rules: script(t, "up:status=drop")})
	raw := []byte("not a control packet")
	if out := l.decide(raw); len(out) != 1 || !bytes.Equal(out[0].payload, raw) {
		t.Fatal("non-Liquid payload should pass untouched")
	}
}

func TestFaultsAnnotateTraces(t *testing.T) {
	col := tracing.New("chaos")
	l := upLink(LinkParams{Tracer: col, Rules: script(t, "up:status=drop")})
	l.decide(netproto.Packet{Command: netproto.CmdStatus, TraceID: 7}.Marshal())
	l.decide(pkt(netproto.CmdStatus)) // untraced: nothing to annotate
	var spans []string
	for _, td := range col.TakeTrace(7) {
		for _, sp := range td.Spans {
			spans = append(spans, fmt.Sprint(sp.Name, sp.Attrs))
		}
	}
	if want := "[fault:drop[{dir up} {cmd status}]]"; fmt.Sprint(spans) != want {
		t.Fatalf("trace 7 holds %v, want %s", spans, want)
	}
	if n := len(col.Completed()); n != 0 {
		t.Fatalf("%d traces besides the traced packet's", n)
	}
}

func TestDroppedWriteReportsFullLength(t *testing.T) {
	n := NewNetwork(NewVirtualClock(), 1)
	srv, _ := n.Listen("")
	cli, _ := n.Dial(srv.LocalAddr())
	n.SetLink(cli.LocalAddr(), srv.LocalAddr(), LinkParams{Drop: 1})
	msg := pkt(netproto.CmdStatus)
	if k, err := cli.Write(msg); err != nil || k != len(msg) {
		t.Fatalf("dropped write reported (%d, %v), want (%d, nil)", k, err, len(msg))
	}
	if s := n.LinkStats(cli.LocalAddr(), srv.LocalAddr()); s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("link stats %+v, want one drop", s)
	}
}
