package server

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// restoreGOMAXPROCS undoes the node's scheduler-thread bump at test
// cleanup, so benchmarks report against a stable GOMAXPROCS.
func restoreGOMAXPROCS(t testing.TB) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// newBoard boots one LEON platform wrapped in its per-board actor.
func newBoard(t testing.TB, ip [4]byte) *fpx.Platform {
	t.Helper()
	restoreGOMAXPROCS(t)
	soc, err := leon.New(leon.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := leon.NewController(soc)
	if err := ctrl.Boot(); err != nil {
		t.Fatal(err)
	}
	actrl := leon.NewAsyncController(ctrl)
	t.Cleanup(actrl.Close)
	return fpx.New(actrl, ip, 5001)
}

// serveNode runs srv until test cleanup.
func serveNode(t testing.TB, srv *Server) string {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("Serve did not stop")
		}
	})
	return srv.Addr().String()
}

// startServer boots a LEON platform and serves it on loopback.
func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv, err := NewNode("127.0.0.1:0", newBoard(t, [4]byte{10, 0, 0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveNode(t, srv)
}

// startNode boots an n-board node on loopback.
func startNode(t testing.TB, n int) (*Server, string) {
	t.Helper()
	boards := make([]*fpx.Platform, n)
	for i := range boards {
		boards[i] = newBoard(t, [4]byte{10, 0, 0, byte(2 + i)})
	}
	srv, err := NewNode("127.0.0.1:0", boards...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveNode(t, srv)
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRemoteSessionOverLoopback(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if leon.State(st.State) != leon.StateIdle {
		t.Errorf("state = %v", leon.State(st.State))
	}

	// Program with a >1-chunk image (padded data section).
	obj, err := asm.AssembleAt(`
_start:
	set 0x1234, %o0
	set result, %g1
	st %o0, [%g1]
	set 0x1000, %g7
	jmp %g7
	nop
result:	.word 0
	.space 3000
`, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	rep, data, err := c.RunProgram(obj.Origin, obj.Code, obj.Origin, mustSym(t, obj, "result"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
		t.Errorf("report = %+v", rep)
	}
	if got := be32(data); got != 0x1234 {
		t.Errorf("result = %#x", got)
	}

	// Status reflects the run.
	st, err = c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if leon.State(st.State) != leon.StateDone || st.Last.Cycles != rep.Cycles {
		t.Errorf("post-run status = %+v", st)
	}
}

func mustSym(t *testing.T, obj *asm.Object, name string) uint32 {
	t.Helper()
	v, ok := obj.Symbol(name)
	if !ok {
		t.Fatalf("symbol %q undefined", name)
	}
	return v
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func TestWriteAndReadMemoryRemote(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	payload := bytes.Repeat([]byte{0xA5, 0x5A}, 2048)
	if err := c.WriteMemory(leon.DefaultLoadAddr, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadMemory(leon.DefaultLoadAddr, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("read back differs")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	// Start without load → server error.
	if _, err := c.Start(0, 0); err == nil || !strings.Contains(err.Error(), "no program loaded") {
		t.Errorf("err = %v", err)
	}
	// Load to a bad address → server error mentioning the mailbox.
	err := c.LoadProgram(leon.SRAMBase, []byte{1, 2, 3, 4})
	if err == nil || !strings.Contains(err.Error(), "mailbox") {
		t.Errorf("err = %v", err)
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	srv, addr := startServer(t)
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not a liquid packet")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 256)
	if n, _ := conn.Read(buf); n != 0 {
		t.Errorf("garbage got a %d-byte response", n)
	}
	// Server still alive.
	c := dial(t, addr)
	if _, err := c.Status(); err != nil {
		t.Errorf("status after garbage: %v", err)
	}
	_ = srv
}

// TestClientRetransmission runs the client against a lossy fake server
// that drops the first copy of every request.
func TestClientRetransmission(t *testing.T) {
	em := fpx.NewEmulator()
	platform := fpx.New(em, [4]byte{10, 0, 0, 2}, 5001)

	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 64<<10)
		seen := map[string]bool{}
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			key := string(buf[:n])
			if !seen[key] {
				seen[key] = true // drop first copy
				continue
			}
			if resp, ok := platform.Handle(fpx.Peer{}, buf[:n], tracing.Ctx{}); ok {
				conn.WriteToUDP(resp.Marshal(), peer)
			}
		}
	}()

	c := dial(t, conn.LocalAddr().String())
	c.Timeout = 150 * time.Millisecond
	c.Retries = 3
	img := make([]byte, 2500)
	if err := c.LoadProgram(leon.DefaultLoadAddr, img); err != nil {
		t.Fatalf("lossy load: %v", err)
	}
	rep, err := c.Start(leon.DefaultLoadAddr, 0)
	if err != nil {
		t.Fatalf("lossy start: %v", err)
	}
	if rep.Cycles == 0 {
		t.Error("no cycles reported")
	}
}

func TestClientTimesOutAgainstDeadServer(t *testing.T) {
	// Bind a socket that never answers.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := dial(t, conn.LocalAddr().String())
	c.Timeout = 50 * time.Millisecond
	c.Retries = 1
	if _, err := c.Status(); err == nil {
		t.Error("status against dead server succeeded")
	}
}

func TestServerCloseStopsServe(t *testing.T) {
	em := fpx.NewEmulator()
	platform := fpx.New(em, [4]byte{10, 0, 0, 2}, 5001)
	srv, err := NewNode("127.0.0.1:0", platform)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve hung after Close")
	}
}

func TestBadBindAddress(t *testing.T) {
	em := fpx.NewEmulator()
	platform := fpx.New(em, [4]byte{10, 0, 0, 2}, 5001)
	if _, err := NewNode("not-an-address", platform); err == nil {
		t.Error("bad address accepted")
	}
}
