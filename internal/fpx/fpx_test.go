package fpx

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

var (
	fpxIP    = [4]byte{10, 0, 0, 2}
	hostIP   = [4]byte{10, 0, 0, 1}
	fpxPort  = uint16(5001)
	hostPort = uint16(41000)
)

// newLEONPlatform builds a platform over a real booted LEON system,
// wrapped in the per-board actor so async starts self-drive.
func newLEONPlatform(t *testing.T) *Platform {
	t.Helper()
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	a := leon.NewAsyncController(ctrl)
	t.Cleanup(a.Close)
	return New(a, fpxIP, fpxPort)
}

// sendCmd wraps a packet in a frame, runs the hardware path, and
// returns the parsed response packets.
func sendCmd(t *testing.T, p *Platform, pkt netproto.Packet) []netproto.Packet {
	t.Helper()
	frame := netproto.BuildFrame(hostIP, fpxIP, hostPort, fpxPort, pkt.Marshal())
	outs, err := p.HandleFrame(frame)
	if err != nil {
		t.Fatalf("HandleFrame: %v", err)
	}
	resps := make([]netproto.Packet, len(outs))
	for i, raw := range outs {
		f, err := netproto.ParseFrame(raw)
		if err != nil {
			t.Fatalf("response frame: %v", err)
		}
		if f.IP.Dst != hostIP || f.UDP.DstPort != hostPort {
			t.Fatalf("response misaddressed: %v:%d", f.IP.Dst, f.UDP.DstPort)
		}
		rp, err := netproto.ParsePacket(f.Payload)
		if err != nil {
			t.Fatalf("response payload: %v", err)
		}
		resps[i] = rp
	}
	return resps
}

// testProgram stores 0xBEEF at its result word and returns.
func testProgram(t *testing.T) *asm.Object {
	t.Helper()
	obj, err := asm.AssembleAt(`
_start:
	set 0xBEEF, %o0
	set result, %g1
	st %o0, [%g1]
	set 0x1000, %g7
	jmp %g7
	nop
result:	.word 0
`, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestFullRemoteSession(t *testing.T) {
	p := newLEONPlatform(t)
	obj := testProgram(t)

	// 1. Status: idle.
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})
	if len(resps) != 1 {
		t.Fatalf("%d status responses", len(resps))
	}
	st, err := netproto.ParseStatusResp(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if leon.State(st.State) != leon.StateIdle || !st.BootOK {
		t.Errorf("status = %+v", st)
	}

	// 2. Load the program in one chunk.
	chunks := netproto.ChunkImage(obj.Origin, obj.Code)
	for _, c := range chunks {
		resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: c.Marshal()})
		rep, err := netproto.ParseRunReport(resps[0].Body)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != netproto.StatusOK && rep.Status != netproto.StatusPending {
			t.Fatalf("load status %d", rep.Status)
		}
	}

	// 3. Start (entry 0 = last load address): the §3.1 handoff acks
	// immediately with "running"...
	done := make(chan struct{})
	if !p.SetRunDoneHook(func() { close(done) }) {
		t.Fatal("controller does not support the run-done hook")
	}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack %+v, want running", rep)
	}
	// ...completion is signaled by the run-done hook (no sleep
	// polling) and confirmed with one CmdStatus exchange...
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed")
	}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdStatus})
	st, err = netproto.ParseStatusResp(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if leon.State(st.State) == leon.StateRunning {
		t.Fatal("status still running after the run-done hook fired")
	}
	// ...and the final report is collected with CmdResult.
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdResult})
	rep, err = netproto.ParseRunReport(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Fatalf("run report %+v", rep)
	}

	// 4. Read back the result.
	addr, _ := obj.Symbol("result")
	req := netproto.MemReq{Addr: addr, Length: 4}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdReadMemory, Body: req.Marshal()})
	mr, err := netproto.ParseMemResp(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint32(mr.Data[0])<<24 | uint32(mr.Data[1])<<16 | uint32(mr.Data[2])<<8 | uint32(mr.Data[3]); got != 0xBEEF {
		t.Errorf("result = %#x", got)
	}
	if p.Stats().LoadsCompleted != 1 || p.Stats().CommandsHandled < 4 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

// TestMultiPacketLoadOutOfOrder delivers a multi-chunk load shuffled
// and with duplicates, as UDP may: reassembly must still be exact.
func TestMultiPacketLoadOutOfOrder(t *testing.T) {
	p := newLEONPlatform(t)
	// Build a big image: program + large data tail.
	image := make([]byte, 5*netproto.MaxChunkData+123)
	obj := testProgram(t)
	copy(image, obj.Code)
	for i := len(obj.Code); i < len(image); i++ {
		image[i] = byte(i * 7)
	}
	chunks := netproto.ChunkImage(leon.DefaultLoadAddr, image)
	rng := rand.New(rand.NewSource(42))
	order := rng.Perm(len(chunks))
	// Duplicate a couple of chunks.
	order = append(order, order[0], order[len(order)/2])

	var lastStatus uint8
	for _, idx := range order {
		resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: chunks[idx].Marshal()})
		rep, err := netproto.ParseRunReport(resps[0].Body)
		if err != nil {
			// Post-completion duplicates restart reassembly and
			// report pending; both are acceptable.
			continue
		}
		lastStatus = rep.Status
	}
	_ = lastStatus
	// Verify memory contents via read-back.
	req := netproto.MemReq{Addr: leon.DefaultLoadAddr, Length: uint32(len(image))}
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdReadMemory, Body: req.Marshal()})
	mr, err := netproto.ParseMemResp(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mr.Data, image) {
		t.Error("reassembled image differs from original")
	}
}

func TestNonLiquidTrafficPassesThrough(t *testing.T) {
	p := newLEONPlatform(t)
	// Wrong port.
	frame := netproto.BuildFrame(hostIP, fpxIP, hostPort, fpxPort+1, netproto.Packet{Command: netproto.CmdStatus}.Marshal())
	outs, err := p.HandleFrame(frame)
	if err != nil || len(outs) != 0 {
		t.Errorf("wrong-port frame: %d responses, %v", len(outs), err)
	}
	// Right port, not a Liquid payload.
	frame = netproto.BuildFrame(hostIP, fpxIP, hostPort, fpxPort, []byte("GET /"))
	outs, err = p.HandleFrame(frame)
	if err != nil || len(outs) != 0 {
		t.Errorf("non-liquid frame: %d responses, %v", len(outs), err)
	}
	if p.Stats().PassedThrough != 2 {
		t.Errorf("PassedThrough = %d", p.Stats().PassedThrough)
	}
	// Corrupt frame is counted and reported.
	if _, err := p.HandleFrame([]byte{1, 2, 3}); err == nil {
		t.Error("garbage frame accepted")
	}
	if p.Stats().BadFrames != 1 {
		t.Errorf("BadFrames = %d", p.Stats().BadFrames)
	}
}

func TestStartWithoutLoadFails(t *testing.T) {
	p := newLEONPlatform(t)
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	if resps[0].Command != netproto.CmdError {
		t.Fatalf("response command %#x, want CmdError", resps[0].Command)
	}
	er, err := netproto.ParseErrorResp(resps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != netproto.CmdStartLEON {
		t.Errorf("error resp = %+v", er)
	}
}

func TestFaultingProgramReportsStatusFault(t *testing.T) {
	p := newLEONPlatform(t)
	obj, err := asm.AssembleAt("_start:\n\tunimp 0\n\tnop\n", leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range netproto.ChunkImage(obj.Origin, obj.Code) {
		sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: c.Marshal()})
	}
	done := make(chan struct{}, 1)
	hook := func() {
		select {
		case done <- struct{}{}:
		default: // the hook must not block
		}
	}
	if !p.SetRunDoneHook(hook) {
		t.Fatal("controller does not support the run-done hook")
	}
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	if resps[0].Command != netproto.CmdStartLEON|netproto.RespFlag {
		t.Fatalf("start response %#x", resps[0].Command)
	}
	// The start ack is the §3.1 handoff: the run faults on the board's
	// actor afterwards, and a result query before then would rightly
	// answer StatusRunning. Wait for the completion hook.
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed")
	}
	// CmdResult collects the faulted run; CmdWaitResult reports the
	// same final report.
	for _, cmd := range []uint8{netproto.CmdResult, netproto.CmdWaitResult} {
		resps = sendCmd(t, p, netproto.Packet{Command: cmd})
		rep, err := netproto.ParseRunReport(resps[0].Body)
		if err != nil || rep.Status != netproto.StatusFault || rep.TT != 0x02 {
			t.Errorf("%s report = %+v, %v, want fault tt=2", netproto.CommandName(cmd), rep, err)
		}
	}
}

func TestWriteMemoryCommand(t *testing.T) {
	p := newLEONPlatform(t)
	req := netproto.MemReq{Addr: leon.DefaultLoadAddr + 64, Data: []byte{1, 2, 3, 4}}
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdWriteMemory, Body: req.Marshal()})
	if _, err := netproto.ParseMemResp(resps[0].Body); err != nil {
		t.Fatal(err)
	}
	rreq := netproto.MemReq{Addr: leon.DefaultLoadAddr + 64, Length: 4}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdReadMemory, Body: rreq.Marshal()})
	mr, _ := netproto.ParseMemResp(resps[0].Body)
	if !bytes.Equal(mr.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("read back % x", mr.Data)
	}
}

func TestReadLengthCap(t *testing.T) {
	p := newLEONPlatform(t)
	req := netproto.MemReq{Addr: leon.SRAMBase, Length: MaxReadLength + 1}
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdReadMemory, Body: req.Marshal()})
	if _, err := netproto.ParseErrorResp(resps[0].Body); err != nil {
		t.Error("oversized read not rejected")
	}
}

func TestUnknownCommand(t *testing.T) {
	p := newLEONPlatform(t)
	// 0x0B was the retired blocking start; it is unrouted like 0x7F.
	for _, cmd := range []uint8{0x7F, 0x0B} {
		resps := sendCmd(t, p, netproto.Packet{Command: cmd})
		if resps[0].Command != netproto.CmdError {
			t.Fatalf("opcode %#x: response command %#x", cmd, resps[0].Command)
		}
		er, err := netproto.ParseErrorResp(resps[0].Body)
		if err != nil || er.Code != cmd || !strings.Contains(er.Msg, "unknown command") {
			t.Errorf("opcode %#x: error = %+v, %v", cmd, er, err)
		}
	}
}

func TestReconfigureUnwired(t *testing.T) {
	p := newLEONPlatform(t)
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdReconfigure})
	if _, err := netproto.ParseErrorResp(resps[0].Body); err != nil {
		t.Error("unwired reconfigure did not error")
	}
	// Wired: a swap applied inside the ack answers StatusOK with the
	// ticket state in the spares.
	called := false
	p.ReconfigAsyncFn = func(tc tracing.Ctx, spec []byte) (netproto.ReconfigStatusResp, error) {
		called = true
		return netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigApplied}, nil
	}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdReconfigure, Body: []byte("{}")})
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil || rep.Status != netproto.StatusOK || netproto.ReconfigAckInfo(rep).State != netproto.ReconfigApplied {
		t.Errorf("reconfigure resp %+v, %v", rep, err)
	}
	if !called {
		t.Error("ReconfigAsyncFn not invoked")
	}
}

func TestEmulatorBehavesLikeHardware(t *testing.T) {
	em := NewEmulator()
	p := New(em, fpxIP, fpxPort)
	obj := testProgram(t)
	for _, c := range netproto.ChunkImage(obj.Origin, obj.Code) {
		sendCmd(t, p, netproto.Packet{Command: netproto.CmdLoadProgram, Body: c.Marshal()})
	}
	resps := sendCmd(t, p, netproto.Packet{Command: netproto.CmdStartLEON, Body: netproto.StartReq{}.Marshal()})
	rep, err := netproto.ParseRunReport(resps[0].Body)
	if err != nil || rep.Status != netproto.StatusRunning {
		t.Errorf("emulator start ack: %+v, %v", rep, err)
	}
	// The emulator's pretend run settles by the first observation.
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdResult})
	rep, err = netproto.ParseRunReport(resps[0].Body)
	if err != nil || rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Errorf("emulator run: %+v, %v", rep, err)
	}
	// Memory readback returns the loaded bytes (the emulator does not
	// execute, so the result word stays zero — that is the expected
	// fidelity gap the real hardware closed).
	req := netproto.MemReq{Addr: obj.Origin, Length: 8}
	resps = sendCmd(t, p, netproto.Packet{Command: netproto.CmdReadMemory, Body: req.Marshal()})
	mr, _ := netproto.ParseMemResp(resps[0].Body)
	if !bytes.Equal(mr.Data, obj.Code[:8]) {
		t.Error("emulator memory readback differs")
	}
}

func TestEmulatorValidation(t *testing.T) {
	em := NewEmulator()
	if err := em.LoadProgram(leon.SRAMBase, []byte{1}); err == nil {
		t.Error("mailbox load accepted")
	}
	if _, err := em.Execute(leon.DefaultLoadAddr, 0); err == nil {
		t.Error("execute without load accepted")
	}
	em.LoadProgram(leon.DefaultLoadAddr, make([]byte, 64))
	if _, err := em.Execute(leon.DefaultLoadAddr+1024, 0); err == nil {
		t.Error("entry outside image accepted")
	}
	// Budget exceeded → fault.
	res, err := em.Execute(leon.DefaultLoadAddr, 1)
	if err != nil || !res.Faulted {
		t.Errorf("budget run: %+v, %v", res, err)
	}
	if em.State() != leon.StateFault {
		t.Errorf("state = %v", em.State())
	}
}
