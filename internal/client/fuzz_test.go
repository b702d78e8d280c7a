package client

import (
	"os"
	"strings"
	"testing"
	"time"

	"liquidarch/internal/netproto"
	"liquidarch/internal/sim"
	"liquidarch/internal/tracing"
)

// fuzzConn is a Conn that hands the client scripted datagrams, each
// framed as a length byte and the bytes, then read timeouts; a
// zero-length frame is one read timeout in between. It counts the
// datagrams the client writes, notes whether it handed over an OK ack
// to a load chunk already written, and ignores deadlines.
type fuzzConn struct {
	in     []byte
	writes int
	chunks map[uint16]bool // exchange seqs of the load chunks written
	okAck  bool
}

func (f *fuzzConn) Read(b []byte) (int, error) {
	if len(f.in) == 0 {
		return 0, os.ErrDeadlineExceeded
	}
	n := min(int(f.in[0]), len(f.in)-1)
	d := f.in[1 : 1+n]
	f.in = f.in[1+n:]
	if n == 0 {
		return 0, os.ErrDeadlineExceeded
	}
	if p, err := netproto.ParsePacket(d); err == nil && p.Command == netproto.CmdLoadProgram|netproto.RespFlag && p.Board == 0 && f.chunks[p.Seq] {
		if rep, err := netproto.ParseRunReport(p.Body); err == nil && rep.Status == netproto.StatusOK {
			f.okAck = true
		}
	}
	return copy(b, d), nil
}

func (f *fuzzConn) Write(b []byte) (int, error) {
	f.writes++
	if p, err := netproto.ParsePacket(b); err == nil && p.Command == netproto.CmdLoadProgram {
		f.chunks[p.Seq] = true
	}
	return len(b), nil
}

func (f *fuzzConn) SetReadDeadline(time.Time) error { return nil }
func (f *fuzzConn) Close() error                    { return nil }

// frames encodes datagrams for fuzzConn.
func frames(dgrams ...[]byte) []byte {
	var out []byte
	for _, d := range dgrams {
		out = append(out, byte(len(d)))
		out = append(out, d...)
	}
	return out
}

// FuzzDeliver drives the delivery engine's one reply filter with
// arbitrary datagrams: one Status exchange reads statusIn, then a
// three-chunk load reads loadIn. Whatever arrives, every datagram
// written is a counted request or retry, every one has exactly one
// attempt or retry span, no span is recorded twice, and the load
// succeeds only after an OK ack to one of its chunks.
func FuzzDeliver(f *testing.F) {
	reply := func(cmd uint8, seq uint16, body []byte) []byte {
		return netproto.Packet{Command: cmd | netproto.RespFlag, Seq: seq, HasSeq: true, Body: body}.Marshal()
	}
	// A fresh client's Status is exchange seq 1; the load's chunks
	// follow as 2, 3 and 4.
	status := reply(netproto.CmdStatus, 1, netproto.StatusResp{State: 1, BootOK: true}.Marshal())
	ack := func(seq uint16, st uint8, held int) []byte {
		return reply(netproto.CmdLoadProgram, seq, netproto.LoadAckReport(st, held, held).Marshal())
	}
	f.Add(frames(status), []byte(nil))
	f.Add(frames([]byte("noise"), status), []byte(nil))
	f.Add([]byte(nil), frames(ack(2, netproto.StatusPending, 1), ack(3, netproto.StatusPending, 2), ack(4, netproto.StatusOK, 3)))
	// A node whose reassembly restarted: every chunk Pending, gap 0.
	f.Add([]byte(nil), frames(ack(2, netproto.StatusPending, 0), ack(3, netproto.StatusPending, 0), ack(4, netproto.StatusPending, 0)))
	// A Pending ack claiming every chunk.
	f.Add([]byte(nil), frames(ack(2, netproto.StatusPending, 3)))

	f.Fuzz(func(t *testing.T, statusIn, loadIn []byte) {
		conn := &fuzzConn{in: statusIn, chunks: map[uint16]bool{}}
		c := New(conn, sim.NewVirtualClock())
		c.Retries, c.Window = 1, 2
		col := tracing.New("client")
		c.Tracer, c.TraceID = col, col.NewTraceID()
		c.Status()
		conn.in = loadIn
		if err := c.LoadProgram(0x40001000, make([]byte, 2*netproto.MaxChunkData+1)); err == nil && !conn.okAck {
			t.Error("load succeeded without an OK ack")
		}

		snap := c.Metrics().Snapshot()
		sends := snap.Counters["liquid_client_retries_total"]
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "liquid_client_requests_total") {
				sends += v
			}
		}
		if uint64(conn.writes) != sends {
			t.Errorf("%d datagrams written, requests + retries = %d", conn.writes, sends)
		}
		attempts := 0
		seen := map[uint64]bool{}
		for _, td := range col.TakeTrace(c.TraceID) {
			for _, sp := range td.Spans {
				if seen[sp.ID] {
					t.Errorf("span %d (%s) recorded twice", sp.ID, sp.Name)
				}
				seen[sp.ID] = true
				if sp.Name == "attempt" || sp.Name == "retry" {
					attempts++
				}
			}
		}
		if attempts != conn.writes {
			t.Errorf("%d attempt and retry spans for %d datagrams written", attempts, conn.writes)
		}
	})
}
