package server

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"liquidarch/internal/fpx"
	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
)

// TestWindowedLoadFoldsAcksSim: a windowed multi-chunk load across the
// fabric folds Pending acks the next chunk's ack answers for, and every
// reply the node builds is accounted for — sent or folded, never lost.
// The fabric's clock never moves, so no client timeout can fire: the
// load completes only if every chunk is answered, directly or by a
// later ack's gap, with no silent round. (A clock the fabric steps when
// it sees no activity can move while the worker handles a run of
// queued chunks without sending, and a client timeout then fires on a
// reply that is merely slow.) The board then holds the image bit for
// bit.
func TestWindowedLoadFoldsAcksSim(t *testing.T) {
	const chunks = 40
	img := make([]byte, (chunks-1)*netproto.MaxChunkData+100)
	for i := range img {
		img[i] = byte(i*29 + i>>10)
	}
	clk := sim.NewVirtualClock()
	w := &sim.World{Clock: clk, Net: sim.NewNetwork(clk, 1)}
	srv, addr := newSimNode(t, w, simBoard(t, clk, [4]byte{10, 0, 0, 2}))
	serveNode(t, srv)
	c, _ := dialSim(t, w, addr, 1, sim.LinkParams{}) // no latency: delivery needs no clock
	done := make(chan error, 1)
	go func() { done <- c.LoadProgram(leon.DefaultLoadAddr, img) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the load had not completed after 20 s: a chunk is waiting for a silent round")
	}
	got, err := c.ReadMemory(leon.DefaultLoadAddr, len(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("the board's memory differs from the image")
	}

	snap := srv.Metrics().Snapshot()
	built := snap.Counters["liquid_fpx_frames_out_total"]
	out := snap.Counters["liquid_server_datagrams_out_total"]
	folded := snap.Counters["liquid_server_load_acks_folded_total"]
	t.Logf("%d chunks: %d replies built, %d sent, %d folded", chunks, built, out, folded)
	if folded == 0 {
		t.Error("no load ack was folded")
	}
	if built != out+folded {
		t.Errorf("replies built %d != datagrams out %d + folded %d", built, out, folded)
	}
	if n := c.Metrics().Snapshot().Counters["liquid_client_retries_total"]; n != 0 {
		t.Errorf("the client resent %d datagrams", n)
	}
}

// gatedEmulator is an emulator board whose memory reads hold the
// board's worker: each hands the test a channel and waits until the
// test closes it.
type gatedEmulator struct {
	*fpx.Emulator
	held chan chan struct{}
}

func (g *gatedEmulator) ReadMemory(addr uint32, n int) ([]byte, error) {
	release := make(chan struct{})
	g.held <- release
	<-release
	return g.Emulator.ReadMemory(addr, n)
}

// foldRig is a one-board emulator node on a fabric whose clock stands
// still, so no read deadline passes unless the test moves time. The
// test holds the board's worker in a memory read while it queues
// datagrams, so the fold meets exactly the queue the test builds.
type foldRig struct {
	t    *testing.T
	w    *sim.World
	srv  *Server
	addr net.Addr
	emu  *gatedEmulator
}

func newFoldRig(t *testing.T) *foldRig {
	clk := sim.NewVirtualClock()
	w := &sim.World{Clock: clk, Net: sim.NewNetwork(clk, 1)}
	emu := &gatedEmulator{Emulator: fpx.NewEmulator(), held: make(chan chan struct{})}
	srv, addr := newSimNode(t, w, fpx.New(emu, [4]byte{10, 0, 0, 2}, 5001))
	serveNode(t, srv)
	return &foldRig{t: t, w: w, srv: srv, addr: addr, emu: emu}
}

// peer binds a new endpoint on the fabric, connected to the node.
func (r *foldRig) peer() *sim.Conn {
	conn, err := r.w.Net.Dial(r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { conn.Close() })
	return conn
}

// hold parks the board's worker in a memory read; the returned release
// lets it go once the node has queued n more datagrams behind it.
func (r *foldRig) hold() (release func(n int)) {
	conn := r.peer()
	read := netproto.Packet{Command: netproto.CmdReadMemory, Seq: 1, HasSeq: true,
		Body: netproto.MemReq{Addr: leon.DefaultLoadAddr, Length: 4}.Marshal()}
	if _, err := conn.Write(read.Marshal()); err != nil {
		r.t.Fatal(err)
	}
	held := <-r.emu.held
	return func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for r.srv.Metrics().Snapshot().Gauges["liquid_server_queue_depth"] < float64(n) {
			if time.Now().After(deadline) {
				r.t.Fatalf("the node never queued %d datagrams", n)
			}
			time.Sleep(time.Millisecond)
		}
		close(held)
	}
}

// settled waits until the node has answered or folded every reply it
// built for the n requests since the rig started (the held read
// included).
func (r *foldRig) settled(n uint64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := r.srv.Metrics().Snapshot()
		built := snap.Counters["liquid_fpx_frames_out_total"]
		if built == n && built == snap.Counters["liquid_server_datagrams_out_total"]+snap.Counters["liquid_server_load_acks_folded_total"] {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("the node built %d of %d replies", built, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// folded is the node's count of folded load acks.
func (r *foldRig) folded() uint64 {
	return r.srv.Metrics().Snapshot().Counters["liquid_server_load_acks_folded_total"]
}

// ack is one load ack as a peer reads it.
type ack struct {
	seq    uint16 // the exchange seq echoed (v4 only)
	status uint8
	gap    int
}

// sendChunk writes chunk i of img's load at addr from conn, under
// exchange seq when seq is not 0 and as a v1 datagram otherwise.
func sendChunk(t *testing.T, conn *sim.Conn, addr uint32, img []byte, i int, seq uint16) {
	t.Helper()
	pkt := netproto.Packet{Command: netproto.CmdLoadProgram, Seq: seq, HasSeq: seq != 0}
	if _, err := conn.Write(netproto.ChunkImage(addr, img)[i].MarshalPacket(pkt)); err != nil {
		t.Fatal(err)
	}
}

// acks reads every load ack waiting at conn.
func (r *foldRig) acks(conn *sim.Conn) []ack {
	var out []ack
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(r.w.Clock.Now()) // the clock stands still: never blocks
		n, err := conn.Read(buf)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return out
		}
		if err != nil {
			r.t.Fatal(err)
		}
		pkt, err := netproto.ParsePacket(buf[:n])
		if err != nil || pkt.Command != netproto.CmdLoadProgram|netproto.RespFlag {
			r.t.Fatalf("reply %x is not a load ack", buf[:n])
		}
		rep, err := netproto.ParseRunReport(pkt.Body)
		if err != nil {
			r.t.Fatal(err)
		}
		_, gap := netproto.LoadAckProgress(rep)
		out = append(out, ack{seq: pkt.Seq, status: rep.Status, gap: gap})
	}
}

func testImage(n int, salt byte) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i) ^ salt
	}
	return img
}

// TestLoadAckFold drives the fold over queues built datagram by
// datagram. Every case but the first fails on a node that folds any
// Pending load ack while its board's queue is not empty.
func TestLoadAckFold(t *testing.T) {
	addrA, addrB := uint32(leon.DefaultLoadAddr), uint32(leon.DefaultLoadAddr+0x10000)

	// Three chunks of one load queued together reach the peer as the
	// final OK ack alone: each Pending ack is folded into the next.
	t.Run("one load folds", func(t *testing.T) {
		r := newFoldRig(t)
		img := testImage(2*netproto.MaxChunkData+9, 0)
		a := r.peer()
		release := r.hold()
		for i := 0; i < 3; i++ {
			sendChunk(t, a, addrA, img, i, uint16(10+i))
		}
		release(3)
		r.settled(4)
		if got, want := r.acks(a), []ack{{seq: 12, status: netproto.StatusOK, gap: 3}}; !slices.Equal(got, want) {
			t.Errorf("peer read %+v, want %+v", got, want)
		}
		if r.folded() != 2 {
			t.Errorf("folded %d acks, want 2", r.folded())
		}
	})

	// Two peers' chunks interleaved in the queue: no ack is folded
	// across peers, and each chunk draws its own ack.
	t.Run("peers interleaved", func(t *testing.T) {
		r := newFoldRig(t)
		imgA, imgB := testImage(3*netproto.MaxChunkData, 1), testImage(3*netproto.MaxChunkData, 2)
		a, b := r.peer(), r.peer()
		release := r.hold()
		for i := 0; i < 2; i++ {
			sendChunk(t, a, addrA, imgA, i, uint16(10+i))
			sendChunk(t, b, addrB, imgB, i, uint16(20+i))
		}
		release(4)
		r.settled(5)
		for _, p := range []struct {
			name string
			conn *sim.Conn
			base uint16
		}{{"A", a, 10}, {"B", b, 20}} {
			got := r.acks(p.conn)
			if len(got) != 2 || got[0].seq != p.base || got[1].seq != p.base+1 {
				t.Errorf("peer %s read %+v, want an ack for each of its two chunks", p.name, got)
			}
		}
		if r.folded() != 0 {
			t.Errorf("folded %d acks across peers", r.folded())
		}
	})

	// The paper's v1 stop-and-wait load carries no exchange seq: its
	// acks are never folded, even with its chunks queued together.
	t.Run("v1 never folds", func(t *testing.T) {
		r := newFoldRig(t)
		img := testImage(2*netproto.MaxChunkData+9, 3)
		a := r.peer()
		release := r.hold()
		for i := 0; i < 3; i++ {
			sendChunk(t, a, addrA, img, i, 0)
		}
		release(3)
		r.settled(4)
		got := r.acks(a)
		want := []ack{
			{status: netproto.StatusPending, gap: 1},
			{status: netproto.StatusPending, gap: 2},
			{status: netproto.StatusOK, gap: 3},
		}
		if !slices.Equal(got, want) {
			t.Errorf("v1 peer read %+v, want %+v", got, want)
		}
		if r.folded() != 0 {
			t.Errorf("folded %d v1 acks", r.folded())
		}
	})

	// A retransmitted chunk queued behind a first-time chunk draws a
	// dedup re-ack with an old gap, which answers nothing about the
	// first-time chunk: that chunk's ack goes out first, and the load
	// completes with no chunk left waiting for a silent round.
	t.Run("retransmit behind first-time chunk", func(t *testing.T) {
		r := newFoldRig(t)
		img := testImage(3*netproto.MaxChunkData+9, 4)
		a := r.peer()
		release := r.hold()
		sendChunk(t, a, addrA, img, 0, 10)
		release(1)
		r.settled(2)
		sendChunk(t, a, addrA, img, 1, 11)
		r.settled(3)
		if got, want := r.acks(a), []ack{{10, netproto.StatusPending, 1}, {11, netproto.StatusPending, 2}}; !slices.Equal(got, want) {
			t.Fatalf("peer read %+v, want %+v", got, want)
		}

		release = r.hold()
		sendChunk(t, a, addrA, img, 2, 12) // first time
		sendChunk(t, a, addrA, img, 0, 10) // a retransmit, byte-identical
		release(2)
		r.settled(6)
		if got, want := r.acks(a), []ack{{12, netproto.StatusPending, 3}, {10, netproto.StatusPending, 1}}; !slices.Equal(got, want) {
			t.Errorf("peer read %+v, want chunk 2's ack, then the re-ack %+v", got, want)
		}
		sendChunk(t, a, addrA, img, 3, 13)
		r.settled(7)
		if got, want := r.acks(a), []ack{{13, netproto.StatusOK, 4}}; !slices.Equal(got, want) {
			t.Errorf("peer read %+v, want the load's OK ack %+v", got, want)
		}
		if r.folded() != 0 {
			t.Errorf("folded %d acks", r.folded())
		}
		mem, err := r.emu.Emulator.ReadMemory(addrA, len(img))
		if err != nil || !bytes.Equal(mem, img) {
			t.Errorf("the board does not hold the image (%v)", err)
		}
	})
}
