package server

import (
	"fmt"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/client"
	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
)

// spinProg loops forever; the run only ends via its cycle budget or an
// abandoning Close. It keeps a board busy while status latency is
// measured.
const spinProg = `
_start:
	ba _start
	nop
`

// countProg spins count iterations (~6 cycles each) then exits through
// the poll address, so two boards running it report identical cycles.
func countProg(count int) string {
	return fmt.Sprintf(`
_start:
	set %d, %%g2
loop:
	subcc %%g2, 1, %%g2
	bne loop
	nop
	set 0x1000, %%g7
	jmp %%g7
	nop
	.space 3000
`, count)
}

func assembleAt(t testing.TB, src string) *asm.Object {
	t.Helper()
	obj, err := asm.AssembleAt(src, leon.DefaultLoadAddr)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestStatusDuringLongRun is the tentpole's latency criterion: while
// board 0 executes a long program, CmdStatus, CmdStats and CmdResult
// are answered between two step slices of the run, and the status
// cycle counter advances between polls. It is asserted by construction
// rather than against a wall-clock bound (which CPU contention from
// other test binaries broke): each poll holds the board's actor at a
// slice boundary, and the reply must arrive with the state running and
// exactly the cycle count the board published at that boundary, so no
// slice ran between the request's dequeue and its reply — the control
// plane never waits on execution. Between polls the run resumes.
func TestStatusDuringLongRun(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	actrl := srv.boards[0].Control().(*leon.AsyncController)

	obj := assembleAt(t, spinProg)
	if err := c.LoadProgram(obj.Origin, obj.Code); err != nil {
		t.Fatal(err)
	}
	// Budget bounds the spin loop; the run is abandoned at cleanup long
	// before it expires.
	if err := c.StartAsync(obj.Origin, 1<<40); err != nil {
		t.Fatal(err)
	}

	// hold parks the actor between two step slices (Do runs between
	// slices, never during one) and returns the cycle count it
	// published at that boundary plus the release.
	hold := func() (boundary uint64, release func()) {
		held, resume := make(chan struct{}), make(chan struct{})
		go actrl.Do(func(*leon.Controller) { //nolint:errcheck
			close(held)
			<-resume
		})
		<-held
		return actrl.Cycles(), func() { close(resume) }
	}
	// resumed waits until the run has stepped past boundary. The
	// deadline only turns a hang into a failure; it bounds nothing.
	resumed := func(boundary uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for actrl.Cycles() <= boundary {
			if time.Now().After(deadline) {
				t.Fatalf("run did not step past cycle %d after its hold", boundary)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	var last uint64
	for i := 0; i < 30; i++ {
		boundary, release := hold()
		st, err := c.Status()
		if err != nil {
			release()
			t.Fatal(err)
		}
		if leon.State(st.State) != leon.StateRunning {
			t.Fatalf("poll %d: state = %v, want running", i, leon.State(st.State))
		}
		if st.CurCycles != boundary {
			t.Errorf("poll %d: status reported %d cycles; the board sat between two slices at %d", i, st.CurCycles, boundary)
		}
		if i == 0 {
			// CmdStats is served by the same per-board queue, and a
			// result poll mid-run reports the live counter, not a block:
			// both answer while the board is held too.
			if _, err := c.Stats(); err != nil {
				release()
				t.Fatal(err)
			}
			rep, err := c.Result()
			if err != nil {
				release()
				t.Fatal(err)
			}
			if rep.Status != netproto.StatusRunning || rep.Cycles != boundary {
				t.Errorf("mid-run result = %+v, want running at cycle %d", rep, boundary)
			}
		}
		release()
		if boundary <= last {
			t.Errorf("poll %d: cycle counter %d did not advance past %d", i, boundary, last)
		}
		last = boundary
		resumed(boundary)
	}
}

// TestTwoBoardsConcurrent drives two boards of one node at the same
// time: multi-chunk loads interleave, both runs are in flight
// simultaneously, and — the determinism criterion — identical programs
// report bit-identical cycle counts.
func TestTwoBoardsConcurrent(t *testing.T) {
	_, addr := startNode(t, 2)

	iters := 2_000_000
	if raceEnabled || testing.Short() {
		iters = 200_000
	}
	obj := assembleAt(t, countProg(iters))

	clients := make([]*client.Client, 2)
	for b := range clients {
		clients[b] = dial(t, addr)
		clients[b].Board = uint8(b)
	}

	// Interleaved multi-packet loads: both clients stream their chunked
	// image concurrently, so board 0 and board 1 chunks mix arbitrarily
	// on the node's socket.
	var wg sync.WaitGroup
	loadErrs := make([]error, 2)
	for b, c := range clients {
		wg.Add(1)
		go func(b int, c *client.Client) {
			defer wg.Done()
			loadErrs[b] = c.LoadProgram(obj.Origin, obj.Code)
		}(b, c)
	}
	wg.Wait()
	for b, err := range loadErrs {
		if err != nil {
			t.Fatalf("board %d load: %v", b, err)
		}
	}

	// Start both, then observe that both are executing at once.
	for b, c := range clients {
		if err := c.StartAsync(obj.Origin, 0); err != nil {
			t.Fatalf("board %d start: %v", b, err)
		}
	}
	running := 0
	for _, c := range clients {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if leon.State(st.State) == leon.StateRunning {
			running++
		}
	}
	if running != 2 {
		t.Errorf("%d of 2 boards observed running simultaneously", running)
	}

	reps := make([]netproto.RunReport, 2)
	for b, c := range clients {
		rep, err := c.WaitResult()
		if err != nil {
			t.Fatalf("board %d wait: %v", b, err)
		}
		if rep.Status != netproto.StatusOK || rep.Cycles == 0 {
			t.Fatalf("board %d report = %+v", b, rep)
		}
		reps[b] = rep
	}
	if reps[0].Cycles != reps[1].Cycles || reps[0].Instructions != reps[1].Instructions {
		t.Errorf("identical programs diverged: %+v vs %+v", reps[0], reps[1])
	}
}

// TestBadBoardRejected: a board id beyond the node's platforms draws an
// immediate CmdError from the read loop and a bad_board drop count.
func TestBadBoardRejected(t *testing.T) {
	srv, addr := startNode(t, 2)
	c := dial(t, addr)
	c.Board = 7
	_, err := c.Status()
	if err == nil || !strings.Contains(err.Error(), "no board 7") {
		t.Errorf("err = %v", err)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counter(`liquid_server_drops_total{reason="bad_board"}`) == 0 {
		t.Error("bad_board drop not counted")
	}
	// Board 1 on the same node still answers.
	c2 := dial(t, addr)
	c2.Board = 1
	if _, err := c2.Status(); err != nil {
		t.Errorf("board 1 status: %v", err)
	}
}

// TestReadLoopErrorKeepsTrace: a v4 request the read loop rejects (a
// board the node does not have) is answered in v4 shape with the
// request's board, seq and trace id — the same header echo the worker
// path gives board 0.
func TestReadLoopErrorKeepsTrace(t *testing.T) {
	_, addr := startNode(t, 1)
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	for _, board := range []uint8{5, 0} {
		req := netproto.Packet{Command: netproto.CmdStatus, Board: board, Seq: 0x1234, HasSeq: true, TraceID: 0xABCDEF}
		if _, err := conn.Write(req.Marshal()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if buf[2] != netproto.VersionTrace {
			t.Errorf("board %d: reply header version %d, want %d", board, buf[2], netproto.VersionTrace)
		}
		resp, err := netproto.ParsePacket(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Board != board || resp.Seq != 0x1234 || resp.TraceID != 0xABCDEF {
			t.Errorf("board %d: reply header %+v does not echo the request", board, resp)
		}
		if (resp.Command == netproto.CmdError) != (board == 5) {
			t.Errorf("board %d: reply command %#x", board, resp.Command)
		}
	}
}

// stuckCtrl blocks ReadMemory until released, simulating a board whose
// worker is pinned inside a command.
type stuckCtrl struct {
	*fpx.Emulator
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (sc *stuckCtrl) ReadMemory(addr uint32, n int) ([]byte, error) {
	sc.once.Do(func() { close(sc.entered) })
	<-sc.release
	return sc.Emulator.ReadMemory(addr, n)
}

// TestBusyBackpressure: with a queue bound of 1 and a pinned worker,
// the overflow datagram is answered with CmdError "busy" straight from
// the read loop and counted as drops{reason="busy"} — bounded
// backpressure instead of unbounded buffering.
func TestBusyBackpressure(t *testing.T) {
	sc := &stuckCtrl{
		Emulator: fpx.NewEmulator(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	defer close(sc.release)
	platform := fpx.New(sc, [4]byte{10, 0, 0, 2}, 5001)
	srv, err := newNode("127.0.0.1:0", 1, platform)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveNode(t, srv)

	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Job 1: a read the stub blocks in pins the worker.
	read := netproto.Packet{
		Command: netproto.CmdReadMemory,
		Body:    netproto.MemReq{Addr: leon.DefaultLoadAddr, Length: 4}.Marshal(),
	}
	if _, err := conn.Write(read.Marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sc.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never reached ReadMemory")
	}
	// Job 2 fills the 1-slot queue; job 3 must bounce as busy.
	status := netproto.Packet{Command: netproto.CmdStatus}.Marshal()
	if _, err := conn.Write(status); err != nil {
		t.Fatal(err)
	}
	waitQueueDepth(t, srv, 1)
	if _, err := conn.Write(status); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := netproto.ParsePacket(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Command != netproto.CmdError {
		t.Fatalf("overflow reply command %#x, want CmdError", pkt.Command)
	}
	er, err := netproto.ParseErrorResp(pkt.Body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != netproto.CmdStatus || !strings.Contains(er.Msg, "busy") {
		t.Errorf("overflow error = %+v", er)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counter(`liquid_server_drops_total{reason="busy"}`) == 0 {
		t.Error("busy drop not counted")
	}
	if d := snap.Gauges["liquid_server_queue_depth"]; d != 1 {
		t.Errorf("queue depth gauge = %v, want 1 (the queued status)", d)
	}
}

// waitQueueDepth waits until the node's queue-depth gauge reaches want.
func waitQueueDepth(t *testing.T, srv *Server, want float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if srv.Metrics().Snapshot().Gauges["liquid_server_queue_depth"] >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerProfileLabels: a board worker runs each job under pprof
// labels naming its board and command, so /debug/pprof attributes node
// CPU per board and per command. The goroutine profile taken while the
// worker is pinned inside a read shows both.
func TestWorkerProfileLabels(t *testing.T) {
	sc := &stuckCtrl{
		Emulator: fpx.NewEmulator(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	platform := fpx.New(sc, [4]byte{10, 0, 0, 2}, 5001)
	srv, err := New(platform, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := serveNode(t, srv)
	c := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadMemory(leon.DefaultLoadAddr, 4)
		done <- err
	}()
	select {
	case <-sc.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached ReadMemory")
	}
	var prof strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	close(sc.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := `# labels: {"board":"0", "cmd":"readmem"}`; !strings.Contains(prof.String(), want) {
		t.Errorf("goroutine profile lacks %s", want)
	}
}
