package fpx

import (
	"bytes"
	"runtime"
	"testing"

	"liquidarch/internal/leon"
	"liquidarch/internal/netproto"
	"liquidarch/internal/tracing"
)

// Two peers of the dedup tests.
var (
	peerA = Peer{IP: [4]byte{1, 2, 3, 4}, Port: 100}
	peerB = Peer{IP: [4]byte{5, 6, 7, 8}, Port: 100}
)

// handle hands raw to p as one untraced datagram from src and returns
// the reply; a datagram that draws none fails the test.
func handle(t testing.TB, p *Platform, src Peer, raw []byte) netproto.Packet {
	t.Helper()
	resp, ok := p.Handle(src, raw, tracing.Ctx{})
	if !ok {
		t.Fatalf("no reply to % x", raw)
	}
	return resp
}

func TestDedupCacheRememberAndLookup(t *testing.T) {
	d := newDedupCache()
	k := dedupKey{src: peerA, cmd: netproto.CmdStatus, seq: 9}
	if _, ok := d.lookup(k); ok {
		t.Fatal("empty cache claims a hit")
	}
	resp := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag}
	d.remember(k, resp)
	got, ok := d.lookup(k)
	if !ok || got.Command != resp.Command {
		t.Fatalf("lookup after remember: %v %v", got, ok)
	}
	// Same src, different seq: a different exchange.
	if _, ok := d.lookup(dedupKey{src: peerA, cmd: netproto.CmdStatus, seq: 10}); ok {
		t.Fatal("different seq hit the cache")
	}
	// Same seq, different src: a different client's exchange.
	if _, ok := d.lookup(dedupKey{src: peerB, cmd: netproto.CmdStatus, seq: 9}); ok {
		t.Fatal("different source hit the cache")
	}
	// Same address, different port: a different client too.
	if _, ok := d.lookup(dedupKey{src: Peer{IP: peerA.IP, Port: peerA.Port + 1}, cmd: netproto.CmdStatus, seq: 9}); ok {
		t.Fatal("different source port hit the cache")
	}
}

func TestDedupCacheEvictsFIFO(t *testing.T) {
	d := newDedupCache()
	key := func(i int) dedupKey {
		return dedupKey{src: Peer{IP: [4]byte{10, 0, 0, 1}, Port: uint16(i)}, cmd: netproto.CmdStatus, seq: uint16(i)}
	}
	for i := 0; i < DedupWindow+1; i++ {
		d.remember(key(i), netproto.Packet{})
	}
	if _, ok := d.lookup(key(0)); ok {
		t.Error("oldest exchange survived a full window of newer ones")
	}
	if _, ok := d.lookup(key(1)); !ok {
		t.Error("second-oldest exchange evicted too early")
	}
	if _, ok := d.lookup(key(DedupWindow)); !ok {
		t.Error("newest exchange missing")
	}
	if len(d.m) != DedupWindow {
		t.Errorf("cache holds %d exchanges, want %d", len(d.m), DedupWindow)
	}
}

func TestDedupCacheUpdateInPlace(t *testing.T) {
	d := newDedupCache()
	k := dedupKey{src: peerA, cmd: 1, seq: 1}
	d.remember(k, netproto.Packet{Command: 1})
	d.remember(k, netproto.Packet{Command: 2})
	got, ok := d.lookup(k)
	if !ok || got.Command != 2 {
		t.Fatalf("update in place: %v %v", got, ok)
	}
	if len(d.m) != 1 {
		t.Errorf("re-remember grew the cache to %d entries", len(d.m))
	}
}

// TestRetransmitAnsweredFromCache: a v4 exchange handled twice from
// the same source is answered from the dedup window the second time —
// identical replies, no second dispatch.
func TestRetransmitAnsweredFromCache(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	req := netproto.Packet{Command: netproto.CmdStatus, Seq: 5, HasSeq: true}.Marshal()

	first := handle(t, p, peerA, req)
	second := handle(t, p, peerA, req)
	if !bytes.Equal(first.Marshal(), second.Marshal()) {
		t.Error("retransmission drew a different response than the original")
	}
	if !second.HasSeq || second.Seq != 5 {
		t.Errorf("response does not echo the exchange seq: %+v", second)
	}
	snap := p.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_dup_requests_total"]; got != 1 {
		t.Errorf("dedup re-acks = %d, want 1", got)
	}

	// The same seq from a DIFFERENT source is a fresh exchange.
	handle(t, p, peerB, req)
	snap = p.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_dup_requests_total"]; got != 1 {
		t.Errorf("other-source request hit the dedup window (re-acks = %d)", got)
	}
}

// TestReackEchoesRequest: a re-ack echoes the datagram it answers — one
// that repeats an exchange's peer, command and seq under another trace
// id gets that trace id back, not the original's.
func TestReackEchoesRequest(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	req := netproto.Packet{Command: netproto.CmdStatus, Seq: 5, HasSeq: true, TraceID: 1}
	handle(t, p, peerA, req.Marshal())
	req.TraceID = 2
	if resp := handle(t, p, peerA, req.Marshal()); resp.TraceID != 2 || resp.Seq != 5 {
		t.Errorf("re-ack echoes seq %d trace %#x, want seq 5 trace 2", resp.Seq, resp.TraceID)
	}
	if got := p.Metrics().Snapshot().Counters["liquid_fpx_dup_requests_total"]; got != 1 {
		t.Errorf("dedup re-acks = %d, want 1", got)
	}
}

// countingCtrl counts the platform's starts so a test can prove a
// duplicated start never re-runs the program.
type countingCtrl struct {
	*Emulator
	starts int
}

func (c *countingCtrl) StartCtx(tc tracing.Ctx, entry uint32, maxCycles uint64) error {
	c.starts++
	return c.Emulator.StartCtx(tc, entry, maxCycles)
}

// TestRetransmittedWriteNotReapplied: the dedup window makes mutating
// commands idempotent — here a duplicated start does not re-run the
// program.
func TestRetransmittedWriteNotReapplied(t *testing.T) {
	em := &countingCtrl{Emulator: NewEmulator()}
	p := New(em, [4]byte{10, 0, 0, 2}, 5001)
	// Load a one-chunk image so start has something to run.
	chunk := netproto.ChunkImage(leon.DefaultLoadAddr, bytes.Repeat([]byte{1}, 64))[0]
	load := netproto.Packet{Command: netproto.CmdLoadProgram, Seq: 1, HasSeq: true, Body: chunk.Marshal()}.Marshal()
	handle(t, p, peerA, load)
	start := netproto.Packet{Command: netproto.CmdStartLEON, Seq: 2, HasSeq: true,
		Body: netproto.StartReq{Entry: leon.DefaultLoadAddr}.Marshal()}.Marshal()
	r1 := handle(t, p, peerA, start)
	if em.starts != 1 {
		t.Fatalf("start ran the program %d times, want 1", em.starts)
	}
	r2 := handle(t, p, peerA, start) // retransmission
	if em.starts != 1 {
		t.Errorf("retransmitted start re-ran the program (%d starts)", em.starts)
	}
	if !bytes.Equal(r1.Marshal(), r2.Marshal()) {
		t.Error("retransmitted start drew a different report")
	}
}

func TestV1RequestsBypassDedup(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	req := netproto.Packet{Command: netproto.CmdStatus}.Marshal() // v1: no seq
	handle(t, p, peerA, req)
	handle(t, p, peerA, req)
	snap := p.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_dup_requests_total"]; got != 0 {
		t.Errorf("v1 requests hit the dedup window (%d re-acks)", got)
	}
	// Responses to v1 requests stay v1-shaped.
	if resp := handle(t, p, peerA, req); resp.HasSeq || resp.Marshal()[2] != netproto.Version {
		t.Errorf("v1 request drew a v4 response: %+v", resp)
	}
}

// TestDuplicateChunkReackedWithProgress: a re-sent load chunk is acked
// with the reassembly progress but never copied again.
func TestDuplicateChunkReackedWithProgress(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	img := bytes.Repeat([]byte{7}, netproto.MaxChunkData+10) // 2 chunks
	chunks := netproto.ChunkImage(leon.DefaultLoadAddr, img)

	send := func(seq uint16, c netproto.LoadChunk) netproto.RunReport {
		t.Helper()
		raw := netproto.Packet{Command: netproto.CmdLoadProgram, Seq: seq, HasSeq: true, Body: c.Marshal()}.Marshal()
		rep, err := netproto.ParseRunReport(handle(t, p, peerA, raw).Body)
		if err != nil {
			t.Fatalf("chunk %d ack: %v", c.Seq, err)
		}
		return rep
	}

	rep := send(1, chunks[0])
	if rep.Status != netproto.StatusPending {
		t.Fatalf("first chunk status %d", rep.Status)
	}
	if recv, next := netproto.LoadAckProgress(rep); recv != 1 || next != 1 {
		t.Fatalf("first chunk progress (%d,%d), want (1,1)", recv, next)
	}

	// Re-send chunk 0 as a NEW exchange (seq 2): this models a client
	// resuming an interrupted load, not a retransmission, so it gets
	// past the dedup window and must be re-acked with progress.
	rep = send(2, chunks[0])
	if rep.Status != netproto.StatusPending {
		t.Fatalf("dup chunk status %d", rep.Status)
	}
	if recv, next := netproto.LoadAckProgress(rep); recv != 1 || next != 1 {
		t.Fatalf("dup chunk progress (%d,%d), want (1,1)", recv, next)
	}

	rep = send(3, chunks[1])
	if rep.Status != netproto.StatusOK {
		t.Fatalf("final chunk status %d", rep.Status)
	}
	if recv, next := netproto.LoadAckProgress(rep); recv != 2 || next != 2 {
		t.Fatalf("final progress (%d,%d), want (2,2)", recv, next)
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_load_chunks_applied_total"]; got != 2 {
		t.Errorf("chunks applied = %d, want 2 (dup never re-applied)", got)
	}
	if got := snap.Counters["liquid_fpx_load_chunks_dup_total"]; got != 1 {
		t.Errorf("dup chunks = %d, want 1", got)
	}
}

// TestForgedLoadLengthRefused: a single v1 datagram claiming a
// 3.75 GiB image in two chunks is answered with CmdError and leaves no
// reassembly buffer behind — the length never sizes an allocation.
func TestForgedLoadLengthRefused(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	forged := netproto.LoadChunk{Seq: 0, Total: 2, Addr: leon.DefaultLoadAddr, TotalLen: 0xF0000000}
	resp := handle(t, p, peerA, netproto.Packet{Command: netproto.CmdLoadProgram, Body: forged.Marshal()}.Marshal())
	if resp.Command != netproto.CmdError {
		t.Fatalf("forged chunk answered %+v, want CmdError", resp)
	}
	if er, err := netproto.ParseErrorResp(resp.Body); err != nil || er.Code != netproto.CmdLoadProgram {
		t.Errorf("error = %+v, %v", er, err)
	}
	if p.load != nil {
		t.Errorf("forged chunk left a %d-byte reassembly buffer", len(p.load.buf))
	}
	if got := p.Metrics().Snapshot().Counters["liquid_fpx_load_chunks_total"]; got != 0 {
		t.Errorf("forged chunk counted as received (%d)", got)
	}
}

// TestForgedChunkCountRefused: a first chunk claiming the most chunks
// a load can have, Total 65535 and an image length those chunks can
// carry, is refused before the platform sizes a reassembly buffer from
// it: the image cannot fit the board's SRAM. Four such datagrams at
// four addresses, each claiming 90 MiB, draw CmdError and allocate
// under 1 MB in total, on the emulator and on a LEON board.
func TestForgedChunkCountRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Platform
	}{
		{"emulator", New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)},
		{"leon", newLEONPlatform(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var datagrams [][]byte
			for i := uint32(0); i < 4; i++ {
				forged := netproto.LoadChunk{Seq: 0, Total: 65535, Addr: leon.DefaultLoadAddr + i<<12,
					TotalLen: 65535 * netproto.MaxChunkData, Data: []byte{1, 2, 3, 4}}
				datagrams = append(datagrams, netproto.Packet{Command: netproto.CmdLoadProgram, Seq: uint16(i), HasSeq: true,
					Body: forged.Marshal()}.Marshal())
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, d := range datagrams {
				if resp := handle(t, tc.p, peerB, d); resp.Command != netproto.CmdError {
					t.Fatalf("forged chunk %d answered %+v, want CmdError", i, resp)
				}
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("four forged first chunks allocated %d B, want under 1 MB", got)
			}
			if tc.p.load != nil {
				t.Errorf("a forged chunk left a %d-byte reassembly buffer", len(tc.p.load.buf))
			}
		})
	}
}

func TestSetControlResetsDedup(t *testing.T) {
	p := New(NewEmulator(), [4]byte{10, 0, 0, 2}, 5001)
	req := netproto.Packet{Command: netproto.CmdStatus, Seq: 1, HasSeq: true}.Marshal()
	handle(t, p, peerA, req)
	p.SetControl()
	handle(t, p, peerA, req)
	snap := p.Metrics().Snapshot()
	if got := snap.Counters["liquid_fpx_dup_requests_total"]; got != 0 {
		t.Errorf("dedup window survived SetControl (%d re-acks)", got)
	}
}
