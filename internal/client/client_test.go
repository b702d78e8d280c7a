package client

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"liquidarch/internal/netproto"
)

// scriptServer answers UDP requests with a scripted handler. A reply
// the handler marshals without an exchange seq is stamped with the
// request's board, seq and trace id, as a node echoes them; replies
// that carry a seq (or do not parse) go out as scripted.
func scriptServer(t *testing.T, handle func(req netproto.Packet) [][]byte) string {
	t.Helper()
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
			pkt, err := netproto.ParsePacket(buf[:n])
			if err != nil {
				continue
			}
			for _, resp := range handle(pkt) {
				if rp, err := netproto.ParsePacket(resp); err == nil && !rp.HasSeq {
					rp.Board, rp.Seq, rp.HasSeq, rp.TraceID = pkt.Board, pkt.Seq, true, pkt.TraceID
					resp = rp.Marshal()
				}
				conn.WriteToUDP(resp, peer)
			}
		}
	}()
	return conn.LocalAddr().String()
}

func dialFast(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Timeout = 150 * time.Millisecond
	c.Retries = 2
	return c
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("not a host:port:extra"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	want := netproto.StatusResp{State: 1, BootOK: true, LoadedAddr: 0x40001000}
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdStatus {
			return nil
		}
		return [][]byte{netproto.Packet{
			Command: netproto.CmdStatus | netproto.RespFlag,
			Body:    want.Marshal(),
		}.Marshal()}
	})
	c := dialFast(t, addr)
	got, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("status = %+v", got)
	}
}

// TestExchangeReusesReadBuffer: every exchange reads into the client's
// one receive buffer, so a Status round trip allocates a few hundred
// bytes rather than a fresh 64 KiB buffer.
func TestExchangeReusesReadBuffer(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		return [][]byte{netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Body: netproto.StatusResp{State: 1, BootOK: true}.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	for i := 0; i < 10; i++ { // warm-up: metric children, socket state
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	}
	const exchanges = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < exchanges; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / exchanges; per >= 8<<10 {
		t.Errorf("a Status exchange allocated %d B, want under 8 KiB", per)
	}
}

// TestLoadBuildsEachDatagramOnce: each chunk is encoded straight into
// its datagram, with no body built apart and copied in, so after
// warm-up a 64 KB load allocates under 1.3× the image. The ack server
// runs in this process, so its allocations count too.
func TestLoadBuildsEachDatagramOnce(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		ch, err := netproto.ParseLoadChunk(req.Body)
		if err != nil {
			return nil
		}
		st := netproto.StatusPending
		if ch.Seq == ch.Total-1 {
			st = netproto.StatusOK
		}
		ack := netproto.LoadAckReport(st, int(ch.Seq)+1, int(ch.Seq)+1)
		return [][]byte{netproto.Packet{Command: netproto.CmdLoadProgram | netproto.RespFlag, Body: ack.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	c.Window = 1
	image := make([]byte, 64<<10)
	for i := 0; i < 3; i++ { // warm-up: metric children, socket state
		if err := c.LoadProgram(0x40001000, image); err != nil {
			t.Fatal(err)
		}
	}
	const loads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		if err := c.LoadProgram(0x40001000, image); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / loads; per >= uint64(len(image))*13/10 {
		t.Errorf("a %d-byte load allocated %d B (%.2f×), want under 1.3×", len(image), per, float64(per)/float64(len(image)))
	} else {
		t.Logf("a %d-byte load allocated %d B (%.2f×)", len(image), per, float64(per)/float64(len(image)))
	}
}

// TestStaleResponsesSkipped: the client must ignore responses to other
// commands (e.g. from an earlier retransmitted request) and garbage.
func TestStaleResponsesSkipped(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdStatus {
			return nil
		}
		stale := netproto.Packet{Command: netproto.CmdStartLEON | netproto.RespFlag,
			Body: netproto.RunReport{}.Marshal()}.Marshal()
		garbage := []byte("noise")
		good := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Body: netproto.StatusResp{State: 3, BootOK: true}.Marshal()}.Marshal()
		return [][]byte{stale, garbage, good}
	})
	c := dialFast(t, addr)
	got, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if got.State != 3 {
		t.Errorf("state = %d (stale response taken?)", got.State)
	}
}

// TestStaleErrorSkipped: a CmdError for a different command must not
// fail the current request.
func TestStaleErrorSkipped(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdStatus {
			return nil
		}
		staleErr := netproto.Packet{Command: netproto.CmdError,
			Body: netproto.ErrorResp{Code: netproto.CmdReadMemory, Msg: "old failure"}.Marshal()}.Marshal()
		good := netproto.Packet{Command: netproto.CmdStatus | netproto.RespFlag,
			Body: netproto.StatusResp{State: 1, BootOK: true}.Marshal()}.Marshal()
		return [][]byte{staleErr, good}
	})
	c := dialFast(t, addr)
	if _, err := c.Status(); err != nil {
		t.Errorf("stale error failed the request: %v", err)
	}
}

func TestMatchingErrorSurfaces(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		return [][]byte{netproto.Packet{Command: netproto.CmdError,
			Body: netproto.ErrorResp{Code: req.Command, Msg: "nope"}.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	_, err := c.Status()
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadProgramChunksAndStatuses(t *testing.T) {
	// got is written by the scripted-server goroutine and read by the
	// test goroutine; the UDP round trip is not a synchronization
	// point, so guard it.
	var mu sync.Mutex
	var got []netproto.LoadChunk
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdLoadProgram {
			return nil
		}
		ch, err := netproto.ParseLoadChunk(req.Body)
		if err != nil {
			return nil
		}
		mu.Lock()
		// Deduplicate retransmissions by sequence number.
		dup := false
		for _, g := range got {
			if g.Seq == ch.Seq {
				dup = true
			}
		}
		if !dup {
			ch.Data = append([]byte(nil), ch.Data...)
			got = append(got, ch)
		}
		mu.Unlock()
		st := netproto.StatusPending
		if int(ch.Seq) == int(ch.Total)-1 {
			st = netproto.StatusOK
		}
		return [][]byte{netproto.Packet{Command: netproto.CmdLoadProgram | netproto.RespFlag,
			Body: netproto.RunReport{Status: st}.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	image := make([]byte, 2*netproto.MaxChunkData+7)
	for i := range image {
		image[i] = byte(i)
	}
	if err := c.LoadProgram(0x40001000, image); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("server saw %d chunks", len(got))
	}
	total := 0
	for _, ch := range got {
		total += len(ch.Data)
	}
	if total != len(image) {
		t.Errorf("chunks carry %d bytes, want %d", total, len(image))
	}
}

func TestLoadProgramRejectedStatus(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		return [][]byte{netproto.Packet{Command: netproto.CmdLoadProgram | netproto.RespFlag,
			Body: netproto.RunReport{Status: netproto.StatusFault}.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	if err := c.LoadProgram(0x40001000, []byte{1}); err == nil {
		t.Error("fault status accepted")
	}
}

func TestReadMemoryShortReadDetected(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		return [][]byte{netproto.Packet{Command: netproto.CmdReadMemory | netproto.RespFlag,
			Body: netproto.MemResp{Status: netproto.StatusOK, Addr: 0, Data: []byte{1, 2}}.Marshal()}.Marshal()}
	})
	c := dialFast(t, addr)
	if _, err := c.ReadMemory(0, 8); err == nil || !strings.Contains(err.Error(), "short read") {
		t.Errorf("err = %v", err)
	}
}

// TestReconfigureStatusChecked: an error-status ack carrying no ticket
// state never reads as a landed swap.
func TestReconfigureStatusChecked(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		switch req.Command {
		case netproto.CmdReconfigure:
			return [][]byte{netproto.Packet{Command: netproto.CmdReconfigure | netproto.RespFlag,
				Body: netproto.RunReport{Status: netproto.StatusError}.Marshal()}.Marshal()}
		case netproto.CmdWaitReconfig:
			return [][]byte{reconfigStatusPacket(netproto.CmdWaitReconfig, netproto.ReconfigStatusResp{})}
		}
		return nil
	})
	c := dialFast(t, addr)
	if err := c.Reconfigure([]byte("{}")); err == nil {
		t.Error("error status accepted")
	}
}

func TestTraceReport(t *testing.T) {
	addr := scriptServer(t, func(req netproto.Packet) [][]byte {
		if req.Command != netproto.CmdTraceReport {
			return nil
		}
		return [][]byte{netproto.Packet{Command: netproto.CmdTraceReport | netproto.RespFlag,
			Body: []byte(`{"instructions":7}`)}.Marshal()}
	})
	c := dialFast(t, addr)
	blob, err := c.TraceReport()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"instructions":7}` {
		t.Errorf("blob = %s", blob)
	}
}
