package fpx

import (
	"bytes"
	"testing"

	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
)

// TestEmulatorWriteMemory: bytes written through the control surface
// read back identically (the emulator's memory is a plain byte array).
func TestEmulatorWriteMemory(t *testing.T) {
	em := NewEmulator()
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := em.WriteMemory(leon.DefaultLoadAddr, data); err != nil {
		t.Fatal(err)
	}
	got, err := em.ReadMemory(leon.DefaultLoadAddr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %x, want %x", got, data)
	}
}

// TestPlatformAccessors covers the observability plumbing a node wires
// at boot: the event log always exists, and a status reply's loaded
// address tracks the last full load.
func TestPlatformAccessors(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	if p.Events() == nil {
		t.Error("platform has no event log")
	}
	loadedAddr := func() uint32 {
		t.Helper()
		st, err := netproto.ParseStatusResp(handle(t, p, peerA, netproto.Packet{Command: netproto.CmdStatus}.Marshal()).Body)
		if err != nil {
			t.Fatal(err)
		}
		return st.LoadedAddr
	}
	if got := loadedAddr(); got != 0 {
		t.Errorf("LoadedAddr = %#x before any load", got)
	}
	img := make([]byte, 64)
	for _, ch := range netproto.ChunkImage(leon.DefaultLoadAddr, img) {
		handle(t, p, peerA, netproto.Packet{Command: netproto.CmdLoadProgram, Body: ch.Marshal()}.Marshal())
	}
	if got := loadedAddr(); got != leon.DefaultLoadAddr {
		t.Errorf("LoadedAddr = %#x after load, want %#x", got, leon.DefaultLoadAddr)
	}
}

// TestUnwiredReconfigSurface: a platform without the core's
// reconfiguration functions rejects the reconfigure commands cleanly
// and reports no reconfiguration in flight, so the server layer never
// holds a reconfigure wait on it.
func TestUnwiredReconfigSurface(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	if p.ReconfigInFlight() {
		t.Error("unwired platform reports a reconfiguration in flight")
	}
	for _, cmd := range []uint8{netproto.CmdReconfigStatus, netproto.CmdWaitReconfig, netproto.CmdGetConfig, netproto.CmdTraceReport} {
		if resp := handle(t, p, peerA, netproto.Packet{Command: cmd}.Marshal()); resp.Command != netproto.CmdError {
			t.Errorf("unwired %s answered %+v, want CmdError", netproto.CommandName(cmd), resp)
		}
	}
}
