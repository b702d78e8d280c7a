package fpx

import (
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
)

// spinProgram burns ~3M cycles before returning — long enough for the
// direct-path CmdWaitResult below (sent microseconds after the start
// ack) to observe the run in flight, short enough to finish promptly
// under the race detector.
func spinProgram(t *testing.T) *asm.Object {
	t.Helper()
	obj, err := asm.AssembleAt(`
_start:
	set 500000, %g2
loop:
	subcc %g2, 1, %g2
	bne loop
	nop
	set 0x1000, %g7
	jmp %g7
	nop
`, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// loadVia pushes a full image through the hardware path chunk by
// chunk.
func loadVia(t *testing.T, p *Platform, obj *asm.Object) {
	t.Helper()
	for _, ch := range netproto.ChunkImage(obj.Origin, obj.Code) {
		resp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: ch.Marshal()})
		rep, err := netproto.ParseRunReport(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != netproto.StatusOK && rep.Status != netproto.StatusPending {
			t.Fatalf("load ack status %d", rep.Status)
		}
	}
}

// TestWaitResultCommand: on the direct hardware path (no server in
// front, so nothing can park the exchange) CmdWaitResult degrades to
// exactly CmdResult semantics — "running" while the run is in flight,
// and a final report identical to CmdResult's once it completes.
func TestWaitResultCommand(t *testing.T) {
	p := newLEONPlatform(t)
	obj := spinProgram(t)
	loadVia(t, p, obj)

	resp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	rep, err := netproto.ParseRunReport(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack %+v, want running", rep)
	}

	// Mid-run, the wait answers "running" like a result poll would.
	resp = sendCmd(t, p, netproto.Packet{
		Command: netproto.CmdWaitResult,
		Body:    netproto.WaitResultReq{HoldMs: 500}.Marshal(),
	})
	rep, err = netproto.ParseRunReport(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusRunning {
		t.Fatalf("mid-run wait = %+v, want running", rep)
	}
	if resp.Command != netproto.CmdWaitResult|netproto.RespFlag {
		t.Fatalf("wait answered with command %#x", resp.Command)
	}

	// Completion is signaled through the run-done hook, not discovered
	// by sleep-polling. The hook is armed mid-run; if the run already
	// finished by the time we look, the state check skips the wait.
	done := make(chan struct{})
	p.SetRunDoneHook(func() { close(done) })
	if p.Control().State() == leon.StateRunning {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("run never completed")
		}
	}

	waitResp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdWaitResult, Body: netproto.WaitResultReq{HoldMs: 500}.Marshal()})
	resResp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdResult})
	waitRep, err := netproto.ParseRunReport(waitResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resRep, err := netproto.ParseRunReport(resResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if waitRep != resRep {
		t.Errorf("wait report %+v != result report %+v", waitRep, resRep)
	}
	if waitRep.Status != netproto.StatusOK || waitRep.Cycles == 0 {
		t.Errorf("final wait report %+v", waitRep)
	}
}

// TestRunDoneHookPlumbing: the platform hands the completion hook to
// its controller, the emulator and the board actor alike, and the
// SetControl reset of a bitfile reload leaves it installed.
func TestRunDoneHookPlumbing(t *testing.T) {
	// The emulator completes pretend runs on its pacing clock, so it
	// fires the hook too (simulated nodes park waits against it).
	emu := NewEmulator()
	emuFired := 0
	New(emu, fpxIP, fpxPort).SetRunDoneHook(func() { emuFired++ })
	if err := emu.LoadProgram(leon.MailboxEnd, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := emu.Execute(leon.MailboxEnd, 0); err != nil {
		t.Fatal(err)
	}
	if emuFired != 1 {
		t.Errorf("emulator run-done hook fired %d times, want 1", emuFired)
	}

	p := newLEONPlatform(t)
	fired := make(chan struct{}, 4)
	p.SetRunDoneHook(func() { fired <- struct{}{} })
	p.SetControl()

	obj := testProgram(t)
	loadVia(t, p, obj)
	resp := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	if rep, err := netproto.ParseRunReport(resp.Body); err != nil || rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack %+v, %v", resp, err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("run-done hook never fired after the SetControl reset")
	}
}
