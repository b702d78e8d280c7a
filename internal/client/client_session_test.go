package client

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"

	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// emulatorServer serves an Emulator-backed platform over loopback.
func emulatorServer(t *testing.T) (string, *fpx.Platform) {
	t.Helper()
	em := fpx.NewEmulator()
	platform := fpx.New(em, [4]byte{10, 0, 0, 2}, 5001)
	platform.ConfigFn = func() []byte {
		blob, _ := json.Marshal(map[string]int{"dcache_bytes": 4096})
		return blob
	}
	platform.ReconfigAsyncFn = func(tracing.Ctx, []byte) (netproto.ReconfigStatusResp, error) {
		return netproto.ReconfigStatusResp{Status: netproto.StatusOK, State: netproto.ReconfigApplied}, nil
	}
	platform.TraceFn = func() ([]byte, error) { return []byte(`{"instructions":1}`), nil }
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if resp, ok := platform.Handle(fpx.Peer{}, buf[:n], tracing.Ctx{}); ok {
				conn.WriteToUDP(resp.Marshal(), peer)
			}
		}
	}()
	return conn.LocalAddr().String(), platform
}

func TestFullSessionAgainstEmulator(t *testing.T) {
	addr, _ := emulatorServer(t)
	c := dialFast(t, addr)

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.BootOK {
		t.Errorf("status = %+v", st)
	}

	image := bytes.Repeat([]byte{0xAB}, 1500)
	rep, data, err := c.RunProgram(leon.DefaultLoadAddr, image, leon.DefaultLoadAddr, leon.DefaultLoadAddr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 {
		t.Error("no cycles reported")
	}
	if !bytes.Equal(data, image[:4]) {
		t.Errorf("readback = % x", data)
	}

	// WriteMemory + ReadMemory round trip.
	if err := c.WriteMemory(leon.DefaultLoadAddr+0x100, []byte{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadMemory(leon.DefaultLoadAddr+0x100, 4)
	if err != nil || !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Errorf("readback %v, %v", got, err)
	}

	// Reconfigure + GetConfig + TraceReport.
	if err := c.Reconfigure([]byte(`{"dcache_bytes":8192}`)); err != nil {
		t.Fatal(err)
	}
	blob, err := c.GetConfig()
	if err != nil || len(blob) == 0 {
		t.Errorf("getconfig: %s, %v", blob, err)
	}
	tr, err := c.TraceReport()
	if err != nil || len(tr) == 0 {
		t.Errorf("trace: %s, %v", tr, err)
	}

	// RunProgram with no result read.
	rep, data, err = c.RunProgram(leon.DefaultLoadAddr, image, 0, 0, 0)
	if err != nil || data != nil || rep.Cycles == 0 {
		t.Errorf("no-result run: %+v % x %v", rep, data, err)
	}
}

func TestRunProgramPropagatesLoadFailure(t *testing.T) {
	addr, _ := emulatorServer(t)
	c := dialFast(t, addr)
	// Loads over the mailbox are rejected by the emulator.
	_, _, err := c.RunProgram(leon.SRAMBase, []byte{1, 2, 3}, leon.SRAMBase, 0, 0)
	if err == nil {
		t.Error("mailbox load accepted")
	}
}
