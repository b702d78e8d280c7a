package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/core"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/synth"
)

// compatProg spins long enough for a held wait to park, stores a
// marker at result and exits through the poll address; the .space tail
// makes its load three chunks.
const compatProg = `
_start:
	set 400000, %g2
loop:
	subcc %g2, 1, %g2
	bne loop
	nop
	set 0xC0FFEE, %o0
	set result, %g1
	st %o0, [%g1]
	set 0x1000, %g7
	jmp %g7
	nop
result:
	.word 0
	.space 3000
`

// TestCompatMatrix runs the two wire generations against two node
// shapes — 2×2 cells on the simulated fabric:
//
//   - v1: the paper's four-command conversation (Fig. 4, §2.6) in
//     hand-built v1 packets — status, stop-and-wait load, start,
//     status polls until the state leaves Running, read memory;
//   - client: the current client — windowed load, StartAsync, held
//     WaitResult, ReadMemory and Reconfigure;
//
// on a 1-board node and on a 2-board node (where v1 reaches board 0
// and the client drives board 1). Every cell must report the cycles of
// an in-process reference run and read back the program's marker; v1
// replies must come back in v1 shape; only the client cells park waits.
func TestCompatMatrix(t *testing.T) {
	obj, err := asm.AssembleAt(compatProg, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := leon.NewController(soc)
	if err := ref.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(obj.Origin, 0)
	if err != nil || want.Faulted {
		t.Fatalf("reference run: %+v, %v", want, err)
	}
	result := mustSym(t, obj, "result")

	for _, boards := range []int{1, 2} {
		for _, conv := range []string{"v1", "client"} {
			boards, conv := boards, conv
			t.Run(fmt.Sprintf("boards=%d/%s", boards, conv), func(t *testing.T) {
				t.Parallel()
				w := sim.NewWorld(int64(boards))
				t.Cleanup(w.Close)
				srv, addr := compatNode(t, w, boards)
				var cycles uint64
				var marker []byte
				if conv == "v1" {
					cycles, marker = v1Conversation(t, w, addr, obj, result)
				} else {
					cycles, marker = clientConversation(t, w, addr, uint8(boards-1), obj, result)
				}
				if cycles != want.Cycles {
					t.Errorf("run took %d cycles, reference %d", cycles, want.Cycles)
				}
				if !bytes.Equal(marker, []byte{0x00, 0xC0, 0xFF, 0xEE}) {
					t.Errorf("read back % x, want the program's marker", marker)
				}
				parked := srv.Metrics().Snapshot().Counters["liquid_server_waits_parked_total"]
				if (parked > 0) != (conv == "client") {
					t.Errorf("%s conversation parked %d waits", conv, parked)
				}
			})
		}
	}
}

// compatNode serves n core-backed boards on the world's fabric; the
// modelled ≈1 h synthesis collapses to ~3.6 ms of clock time.
func compatNode(t *testing.T, w *sim.World, n int) (*Server, net.Addr) {
	t.Helper()
	restoreGOMAXPROCS(t)
	plats := make([]*fpx.Platform, n)
	for i := range plats {
		sys, err := core.New(leon.DefaultConfig(), core.Options{
			Synth: synth.Options{BitstreamBytes: 256, TimeScale: 1e-6, Clock: w.Clock},
			IP:    [4]byte{10, 0, 0, byte(2 + i)},
			Clock: w.Clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		plats[i] = sys.Platform()
	}
	pc, err := w.Net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNodeConn(pc, w.Clock, plats...)
	if err != nil {
		t.Fatal(err)
	}
	serveNode(t, srv)
	return srv, pc.LocalAddr()
}

// v1Conversation drives the paper's four commands in v1 packets and
// returns the run's cycles and the word at result.
func v1Conversation(t *testing.T, w *sim.World, addr net.Addr, obj *asm.Object, result uint32) (uint64, []byte) {
	t.Helper()
	conn, err := w.Net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w.Net.SetLink(conn.LocalAddr(), addr, cleanLink())
	w.Net.SetLink(addr, conn.LocalAddr(), cleanLink())
	buf := make([]byte, 64<<10)
	exchange := func(cmd uint8, body []byte) []byte {
		t.Helper()
		if _, err := conn.Write(netproto.Packet{Command: cmd, Body: body}.Marshal()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(w.Clock.Now().Add(time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", netproto.CommandName(cmd), err)
		}
		if buf[2] != netproto.Version {
			t.Fatalf("%s reply in header version %d, want v1", netproto.CommandName(cmd), buf[2])
		}
		resp, err := netproto.ParsePacket(buf[:n])
		if err != nil || resp.Command != cmd|netproto.RespFlag {
			t.Fatalf("%s reply %+v, %v", netproto.CommandName(cmd), resp, err)
		}
		return append([]byte(nil), resp.Body...)
	}
	status := func() netproto.StatusResp {
		t.Helper()
		st, err := netproto.ParseStatusResp(exchange(netproto.CmdStatus, nil))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	if !status().BootOK {
		t.Fatal("board not booted")
	}
	for _, ch := range netproto.ChunkImage(obj.Origin, obj.Code) {
		rep, err := netproto.ParseRunReport(exchange(netproto.CmdLoadProgram, ch.Marshal()))
		if err != nil || (rep.Status != netproto.StatusPending && rep.Status != netproto.StatusOK) {
			t.Fatalf("load chunk %d: %+v, %v", ch.Seq, rep, err)
		}
	}
	rep, err := netproto.ParseRunReport(exchange(netproto.CmdStartLEON, netproto.StartReq{Entry: obj.Origin}.Marshal()))
	if err != nil || rep.Status != netproto.StatusRunning {
		t.Fatalf("start ack %+v, %v", rep, err)
	}
	st := status()
	for polls := 0; st.State == uint8(leon.StateRunning); polls++ {
		if polls > 100_000 {
			t.Fatal("run never left Running")
		}
		w.Clock.Sleep(time.Millisecond)
		st = status()
	}
	if st.State != uint8(leon.StateDone) || st.Last.Status != netproto.StatusOK {
		t.Fatalf("final status %+v", st)
	}
	mr, err := netproto.ParseMemResp(exchange(netproto.CmdReadMemory, netproto.MemReq{Addr: result, Length: 4}.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	return st.Last.Cycles, mr.Data
}

// clientConversation drives the current client against board and
// returns the run's cycles and the word at result; it then
// reconfigures the board and checks the swap landed.
func clientConversation(t *testing.T, w *sim.World, addr net.Addr, board uint8, obj *asm.Object, result uint32) (uint64, []byte) {
	t.Helper()
	c, _ := dialSim(t, w, addr, int64(board)+1, cleanLink())
	c.Board = board
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	if err := c.StartAsync(obj.Origin, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := c.WaitResult()
	if err != nil || rep.Status != netproto.StatusOK {
		t.Fatalf("wait: %+v, %v", rep, err)
	}
	marker, err := c.ReadMemory(result, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(core.Spec{DCacheBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(spec); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	blob, err := c.GetConfig()
	if err != nil {
		t.Fatalf("get config: %v", err)
	}
	if !strings.Contains(string(blob), "8192") {
		t.Errorf("active config does not reflect the 8 KiB D-cache: %s", blob)
	}
	return rep.Cycles, marker
}
