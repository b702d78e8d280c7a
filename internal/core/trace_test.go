package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
)

// TestNetworkTraceReport: programs run through the platform are traced
// and the summary is pullable via CmdTraceReport.
func TestNetworkTraceReport(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	p := s.Platform()

	// Before any run: a clean error.
	resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
	if resps[0].Command != netproto.CmdError {
		t.Fatal("trace before any run did not error")
	}

	// Load and start through the platform (as a remote client would).
	img, err := s.CompileC(`
int buf[64];
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 64; i++) x += buf[i];
    return x;
}`, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range netproto.ChunkImage(img.Origin, img.Code) {
		p.HandlePayload(netproto.Packet{Command: netproto.CmdLoadProgram, Body: ch.Marshal()}.Marshal())
	}
	done := make(chan struct{})
	if !p.SetRunDoneHook(func() { close(done) }) {
		t.Fatal("controller does not support the run-done hook")
	}
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()}.Marshal())
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil || rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack: %v %+v", err, rep)
	}
	// Completion is signaled through the run-done hook — no sleep
	// polling — then the report is collected with one CmdResult, as a
	// remote client would.
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed")
	}
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdResult}.Marshal())
	rep, err = netproto.ParseRunReport(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK {
		t.Fatalf("result: %+v", rep)
	}

	// Pull the trace summary.
	resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
	if resps[0].Command != netproto.CmdTraceReport|netproto.RespFlag {
		t.Fatalf("trace response command %#x", resps[0].Command)
	}
	var tr TraceReport
	if err := json.Unmarshal(resps[0].Body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Instructions == 0 || tr.MemEvents == 0 || len(tr.HotSpots) == 0 {
		t.Errorf("empty trace report: %+v", tr)
	}
	if tr.MemReads+tr.MemWrites != tr.MemEvents {
		t.Errorf("read/write split %d+%d != %d", tr.MemReads, tr.MemWrites, tr.MemEvents)
	}
	// The 64-int array plus locals: working set is a couple dozen lines.
	if tr.WorkingSetLines < 8 || tr.WorkingSetLines > 64 {
		t.Errorf("working set = %d lines", tr.WorkingSetLines)
	}
	if s.LastTrace() == nil {
		t.Error("LastTrace nil after networked run")
	}
}

// fig7SDRAM is the paper's Fig. 7 kernel with its array in SDRAM,
// behind the AHB↔SDRAM adapter.
const fig7SDRAM = `
int main() {
    int *count = (int*)0x60004000;
    int i;
    int address;
    int x = 0;
    for (i = 0; i < 1024; i++)
        count[i] = i;
    for (i = 0; i < 65536; i = i + 32) {
        address = i % 1024;
        x = x + count[address];
    }
    return x;
}`

// TestNetworkTraceMatchesInProcess: a run started through the platform
// (CmdStartLEON, the networked path) records exactly what an in-process
// RunWithTrace of the same image and configuration records — the
// per-PC counts and the memory-event stream — on the boot
// configuration and after a partial and a full swap, and its per-PC
// counts, TraceReport.Instructions and the run report's instruction
// count all agree.
func TestNetworkTraceMatchesInProcess(t *testing.T) {
	base := leon.DefaultConfig()
	netSys, refSys := newSystem(t, base), newSystem(t, base)
	p := netSys.Platform()
	img, err := netSys.CompileC(fig7SDRAM, lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range netproto.ChunkImage(img.Origin, img.Code) {
		p.HandlePayload(netproto.Packet{Command: netproto.CmdLoadProgram, Body: ch.Marshal()}.Marshal())
	}
	// Only networked runs happen on netSys, and each is waited for
	// before the next starts, so each completion is one signal.
	done := make(chan struct{}, 1)
	if !p.SetRunDoneHook(func() {
		select {
		case done <- struct{}{}:
		default:
		}
	}) {
		t.Fatal("controller does not support the run-done hook")
	}

	partial := base
	partial.DCache.SizeBytes = 2 << 10
	full := partial
	full.CPU.NWindows = 16
	for _, step := range []struct {
		name    string
		cfg     leon.Config
		partial bool
	}{{"boot", base, false}, {"partial swap", partial, true}, {"full swap", full, false}} {
		if step.cfg != netSys.Config() {
			for _, s := range []*System{netSys, refSys} {
				if _, err := s.Reconfigure(step.cfg); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if s.LastReconfigureWasPartial() != step.partial {
					t.Fatalf("%s: partial = %v", step.name, !step.partial)
				}
			}
		}

		resps := p.HandlePayload(netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{Entry: img.Entry}.Marshal()}.Marshal())
		if rep, err := netproto.ParseRunReport(resps[0].Body); err != nil || rep.Status != netproto.StatusRunning {
			t.Fatalf("%s: start ack: %v %+v", step.name, err, rep)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: run never completed", step.name)
		}
		resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdResult}.Marshal())
		rep, err := netproto.ParseRunReport(resps[0].Body)
		if err != nil || rep.Status != netproto.StatusOK {
			t.Fatalf("%s: result: %v %+v", step.name, err, rep)
		}
		resps = p.HandlePayload(netproto.Packet{Command: netproto.CmdTraceReport}.Marshal())
		var tr TraceReport
		if err := json.Unmarshal(resps[0].Body, &tr); err != nil {
			t.Fatalf("%s: trace report: %v", step.name, err)
		}
		got := netSys.LastTrace()

		res, want, err := refSys.RunWithTrace(img, 0)
		if err != nil || res.Faulted {
			t.Fatalf("%s: in-process run: %v %+v", step.name, err, res)
		}
		if !reflect.DeepEqual(got.HotSpots(0), want.HotSpots(0)) {
			t.Errorf("%s: networked per-PC counts differ from the in-process run's", step.name)
		}
		if !reflect.DeepEqual(got.MemEvents(), want.MemEvents()) {
			t.Errorf("%s: networked memory events (%d) differ from the in-process run's (%d)",
				step.name, len(got.MemEvents()), len(want.MemEvents()))
		}
		var sum uint64
		for _, h := range got.HotSpots(0) {
			sum += h.Count
		}
		if sum != tr.Instructions || sum != rep.Instructions || sum != res.Instructions {
			t.Errorf("%s: per-PC sum %d, trace report %d, run report %d, in-process run %d",
				step.name, sum, tr.Instructions, rep.Instructions, res.Instructions)
		}
	}
}
