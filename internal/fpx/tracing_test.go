package fpx

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// benchPlatform is newLEONPlatform for benchmarks.
func benchPlatform(b *testing.B) *Platform {
	b.Helper()
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		b.Fatal(err)
	}
	a := leon.NewAsyncController(ctrl)
	b.Cleanup(a.Close)
	return New(a, fpxIP, fpxPort)
}

// TestV4TraceEcho pins the trace-context propagation contract: a v4
// request's trace id is echoed on the response, an untraced v4 request
// (trace id 0) gets trace id 0 back, and a v1 request gets a v1
// response.
func TestV4TraceEcho(t *testing.T) {
	p := newLEONPlatform(t)

	resp := sendCmd(t, p, netproto.Packet{
		Command: netproto.CmdStatus,
		Seq:     7, HasSeq: true,
		TraceID: 0xDEADBEEFCAFE,
	})
	if resp.TraceID != 0xDEADBEEFCAFE {
		t.Errorf("trace id not echoed: %+v", resp)
	}
	if !resp.HasSeq || resp.Seq != 7 {
		t.Errorf("seq not echoed alongside trace: %+v", resp)
	}

	resp = sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus, Seq: 8, HasSeq: true})
	if resp.TraceID != 0 || resp.Seq != 8 {
		t.Errorf("untraced request got a traced response: %+v", resp)
	}
	resp = sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})
	if resp.HasSeq || resp.Marshal()[2] != netproto.Version {
		t.Errorf("v1 request got a v4 response: %+v", resp)
	}
}

// TestTracesCommand exercises the CmdTraces fetch path: an exchange
// handled in a trace records its spans there, they come back as JSON
// TraceData, and the fetch removes the trace from the ring.
func TestTracesCommand(t *testing.T) {
	p := newLEONPlatform(t)
	col := tracing.New("server")
	p.EnableTracing(col)

	id := col.NewTraceID()
	status := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true, TraceID: id}
	if _, ok := p.Handle(peerA, status.Marshal(), col.Trace(id)); !ok {
		t.Fatal("no reply to a traced status")
	}

	fetch := netproto.Packet{Command: netproto.CmdTraces, Seq: 2, HasSeq: true,
		Body: netproto.TracesReq{TraceID: id}.Marshal()}
	resp := sendCmd(t, p, fetch)
	tr, err := netproto.ParseTracesResp(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != netproto.StatusOK {
		t.Fatalf("traces status %d", tr.Status)
	}
	var tds []tracing.TraceData
	if err := json.Unmarshal(tr.JSON, &tds); err != nil {
		t.Fatalf("traces payload: %v", err)
	}
	if len(tds) != 1 || tds[0].ID != id {
		t.Fatalf("want 1 trace with id %#x, got %+v", id, tds)
	}
	found := false
	for _, sp := range tds[0].Spans {
		if sp.Name == "handle:status" {
			found = true
		}
		if strings.HasPrefix(sp.Name, "handle:traces") {
			t.Errorf("the traces fetch traced itself: %+v", sp)
		}
	}
	if !found {
		t.Errorf("no handle:status span in %+v", tds[0].Spans)
	}

	// The fetch removed the trace: a second fetch returns none.
	fetch.Seq = 3
	resp = sendCmd(t, p, fetch)
	tr, _ = netproto.ParseTracesResp(resp.Body)
	_ = json.Unmarshal(tr.JSON, &tds)
	if len(tds) != 0 {
		t.Errorf("trace still present after take: %+v", tds)
	}
}

// TestFlightDumpOnCmdError verifies the crash-dump path: a command
// that fails with CmdError finishes its trace and writes a flight
// dump containing it.
func TestFlightDumpOnCmdError(t *testing.T) {
	p := newLEONPlatform(t)
	col := tracing.New("server")
	p.EnableTracing(col)
	dir := t.TempDir()
	fr := &tracing.FlightRecorder{Collectors: []*tracing.Collector{col}, Dir: dir}
	p.SetFlightRecorder(fr)

	// Start without a loaded program → CmdError.
	id := col.NewTraceID()
	req := netproto.StartReq{Entry: 0, MaxCycles: 10}
	resp, _ := p.Handle(peerA, netproto.Packet{Command: netproto.CmdStartLEON, Seq: 1, HasSeq: true,
		TraceID: id, Body: req.Marshal()}.Marshal(), col.Trace(id))
	if resp.Command != netproto.CmdError {
		t.Fatalf("expected CmdError, got %#x", resp.Command)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight dumps = %d, want 1", fr.Dumps())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("dump dir: %v entries, err %v", len(ents), err)
	}
	data, err := os.ReadFile(dir + "/" + ents[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	var dump tracing.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if dump.Reason != "cmd_error" {
		t.Errorf("dump reason %q", dump.Reason)
	}
	found := false
	for _, td := range dump.Traces {
		if td.ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("failed exchange's trace %#x missing from dump (%d traces)", id, len(dump.Traces))
	}
}

// TestDisabledTracingAddsZeroAllocs enforces the hot-path guarantee:
// with no tracer attached, handling a v4 packet that carries a trace
// id allocates exactly as much as handling one with trace id 0 — the
// tracing plumbing costs nothing when it is off.
func TestDisabledTracingAddsZeroAllocs(t *testing.T) {
	p := newLEONPlatform(t)

	untraced := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true}.Marshal()
	withID := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true,
		TraceID: 0xABCD}.Marshal()

	// Same seq every run: the dedup cache answers from memory, so the
	// measurement isolates the parse/trace/echo plumbing.
	base := testing.AllocsPerRun(200, func() {
		if _, ok := p.Handle(peerA, untraced, tracing.Ctx{}); !ok {
			t.Fatal("no response")
		}
	})
	traced := testing.AllocsPerRun(200, func() {
		if _, ok := p.Handle(peerA, withID, tracing.Ctx{}); !ok {
			t.Fatal("no response")
		}
	})
	if traced > base {
		t.Errorf("disabled tracing allocates: trace id=%v allocs/op, trace id 0=%v", traced, base)
	}
}

// BenchmarkHandleStatusTraceIDNoTracer is the benchmark-enforced view
// of the same guarantee (run with -benchmem; allocs/op must match the
// untraced figure).
func BenchmarkHandleStatusTraceIDNoTracer(b *testing.B) {
	p := benchPlatform(b)
	raw := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true,
		TraceID: 0xABCD}.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Handle(peerA, raw, tracing.Ctx{})
	}
}

// BenchmarkHandleStatusUntraced is the baseline for the benchmark
// above: the same v4 packet with trace id 0.
func BenchmarkHandleStatusUntraced(b *testing.B) {
	p := benchPlatform(b)
	raw := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true}.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Handle(peerA, raw, tracing.Ctx{})
	}
}
